let () =
  print_int
    (Audit_fixture.Fix.size (Audit_fixture.Fix.make 1)
    + Audit_fixture.User.run 1)
