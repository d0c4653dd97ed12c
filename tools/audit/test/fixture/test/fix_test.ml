let () = assert (Audit_fixture.Fix.tested 2 = 4)
