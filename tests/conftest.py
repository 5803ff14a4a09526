"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; without a deadline, so a slow shared machine does
not fail them on timing; and without an example database.  Hypothesis still
caches the constants it reads from source files and saves patches for
failing examples, so its storage directory goes to the system temporary
directory instead of ``.hypothesis/`` in the working tree.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("osp_lab", derandomize=True, deadline=None, database=None)
settings.load_profile("osp_lab")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "osp_lab-hypothesis")
