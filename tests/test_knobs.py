"""The ``REPRO_*`` knob table (:mod:`repro.knobs`).

Every declared knob parses the same way: unset or blank gives the declared
default, and a malformed value raises one ``ValueError`` naming the knob.
Two scans keep the table the single source of truth: only ``knobs.py``
reads the environment, and the README's knob table lists exactly the
declared names.
"""

import re
from pathlib import Path

import pytest

from repro import knobs

REPO_ROOT = Path(__file__).resolve().parent.parent

BAD_VALUES = {
    "flag": ["anything", "of", "2", "onn"],
    "float": ["abc", "0", "-1", "nan", "inf", "1e999"],
    "int": ["abc", "-1", "2.5", "1e3"],
    "choice": ["frok", "abc", "full-ish"],
}


def _bad_values(knob, tmp_path):
    if knob.kind == "path":
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        return [str(not_a_dir)]
    return BAD_VALUES[knob.kind]


@pytest.mark.parametrize("name", sorted(knobs.KNOBS))
class TestEveryKnob:
    def test_unset_and_blank_give_default(self, monkeypatch, name):
        default = knobs.KNOBS[name].default
        monkeypatch.delenv(name, raising=False)
        assert knobs.get(name) == default
        for blank in ("", "   "):
            monkeypatch.setenv(name, blank)
            assert knobs.get(name) == default

    def test_malformed_value_raises_naming_the_knob(self, monkeypatch, tmp_path, name):
        knob = knobs.KNOBS[name]
        for raw in _bad_values(knob, tmp_path):
            monkeypatch.setenv(name, raw)
            with pytest.raises(ValueError, match=name) as excinfo:
                knobs.get(name)
            assert repr(raw) in str(excinfo.value)
            assert knob.accepted() in str(excinfo.value)
            with pytest.raises(ValueError, match=name):
                knobs.snapshot()


class TestParsing:
    @pytest.mark.parametrize("raw", ["on", "1", "true", "YES", " Enabled "])
    def test_flag_on_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_METRICS", raw)
        assert knobs.get("REPRO_METRICS") is True

    @pytest.mark.parametrize("raw", ["off", "0", "FALSE", "no", "Disabled"])
    def test_flag_off_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACING", raw)
        assert knobs.get("REPRO_TRACING") is False

    def test_ranges_include_their_closed_ends(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1")
        assert knobs.get("REPRO_TRACE_SAMPLE") == 1.0
        monkeypatch.setenv("REPRO_TRACE_MAX_EVENTS", "0")
        assert knobs.get("REPRO_TRACE_MAX_EVENTS") == 0
        monkeypatch.setenv("REPRO_CORE_BUDGET", " 3 ")
        assert knobs.get("REPRO_CORE_BUDGET") == 3

    def test_choices_are_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        assert knobs.get("REPRO_LOG_LEVEL") == "debug"
        monkeypatch.setenv("REPRO_PARALLEL_START_METHOD", "Spawn")
        assert knobs.get("REPRO_PARALLEL_START_METHOD") == "spawn"

    def test_path_keeps_its_spelling(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", f" {tmp_path} ")
        assert knobs.get("REPRO_ARTIFACT_DIR") == str(tmp_path)

    def test_snapshot_covers_every_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.25")
        snap = knobs.snapshot()
        assert list(snap) == list(knobs.KNOBS)
        assert snap["REPRO_TRACE_SAMPLE"] == 0.25


class TestSingleSourceOfTruth:
    def test_only_knobs_module_reads_the_environment(self):
        src = REPO_ROOT / "src"
        readers = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "os.environ" in path.read_text()
        )
        assert readers == ["repro/knobs.py"]

    def test_readme_table_lists_exactly_the_declared_knobs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme.split("### Environment knobs", 1)[1].split("\n###", 1)[0]
        rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, flags=re.MULTILINE)
        assert sorted(rows) == sorted(knobs.KNOBS)
        assert len(rows) == len(set(rows))
