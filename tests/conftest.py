"""One hypothesis profile for the whole suite.

No deadline, since example times swing on a loaded machine, and every
failure prints the blob that reproduces it (``@reproduce_failure``).
"""

from hypothesis import settings

settings.register_profile("sparsedyn", deadline=None, print_blob=True)
settings.load_profile("sparsedyn")
