import json

from cfkit import corpus


def test_every_fixture_matches_its_golden():
    for name in corpus.fixture_names():
        assert corpus.run_fixture(name) == corpus.fixture_reports(name), name


def test_fixture_layout():
    names = corpus.fixture_names()
    assert set(names) >= {"vir", "cur2", "wab", "nfold", "sv", "assoc4", "negative"}
    for name in names:
        directory = corpus.fixture_dir(name)
        assert (directory / "input.cfk").exists()
        assert (directory / "params.txt").exists()
        assert (directory / "expected.json").exists()
        assert corpus.fixture_lines(name)


def test_goldens_are_canonical_json():
    for name in corpus.fixture_names():
        path = corpus.fixture_dir(name) / "expected.json"
        data = json.loads(path.read_text())
        assert path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_goldens_have_no_timings():
    for name in corpus.fixture_names():
        for rec in corpus.fixture_reports(name):
            assert "timings" not in rec["report"]
