"""Settings shared by every test module."""

from hypothesis import settings

# No per-example deadline: example sizes vary widely within one test, and
# the first example of a test also pays for imports and BLAS warm-up.
settings.register_profile("dsgd-lab", deadline=None)
settings.load_profile("dsgd-lab")
