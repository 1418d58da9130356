import pytest

from artifact_manifest import RUNS, run


@pytest.fixture(scope="session")
def standard_runs(tmp_path_factory):
    """Each standard run of artifact_manifest.RUNS, run once a session:
    name -> the directory it wrote.  The manifest test hashes these, and
    the command line tests that need the same runs read them."""
    workdir = tmp_path_factory.mktemp("standard")
    return {name: run(name, workdir) for name in RUNS}
