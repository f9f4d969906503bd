"""Reading one check of a verify.Verdict by name, for the tests."""


def named_check(verdict, name):
    """The first check of `verdict` named `name`; KeyError when none is."""
    for c in verdict.checks:
        if c.name == name:
            return c
    raise KeyError(name)
