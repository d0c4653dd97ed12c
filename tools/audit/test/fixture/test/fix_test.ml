let () = assert (Audit_fixture.Fix.tested 2 = 4)
let () = assert (Audit_fixture.Fix.opt ~tested:1 2 = 3)
