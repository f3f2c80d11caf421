from hypothesis import settings

# Every property test draws the same examples on every run; timing limits
# are left to the test runner.
settings.register_profile("bruhatcells", deadline=None, derandomize=True)
settings.load_profile("bruhatcells")
