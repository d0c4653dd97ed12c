let () =
  let g = Audit_fixture.Fix.opt_passed_on in
  print_int
    (Audit_fixture.Fix.size (Audit_fixture.Fix.make 1)
    + Audit_fixture.User.run 1
    + Audit_fixture.Fix.opt ~used:1 2
    + g ()
    + Audit_fixture.Fix.hooked 1
    + Audit_fixture.Fix.hooked_twice 1)
