"""Top-level public API tests."""

import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow_via_top_level_names(self):
        builder = repro.SpecBuilder("api-check")
        builder.predicate("tournament", "Tournament")
        builder.predicate("enrolled", "Player", "Tournament")
        builder.invariant(
            "forall(Player: p, Tournament: t) :- "
            "enrolled(p, t) => tournament(t)"
        )
        builder.operation(
            "enroll", "Player: p, Tournament: t", true=["enrolled(p, t)"]
        )
        builder.operation(
            "rem_tourn", "Tournament: t", false=["tournament(t)"]
        )
        result = repro.run_ipa(builder.build())
        assert result.is_invariant_preserving
        assert isinstance(result.modified, repro.ApplicationSpec)

    def test_specfile_roundtrip_via_top_level(self):
        spec = repro.parse_specfile(
            "application x\n"
            "predicate p(S)\n"
            "operation add(S: s)\n"
            "    true p(s)\n"
        )
        assert spec.name == "x"

    def test_everything_raises_repro_error(self):
        import pytest

        with pytest.raises(repro.ReproError):
            repro.parse_specfile("nonsense")

    def test_every_environment_variable_is_documented(self):
        """An undocumented ``REPRO_*`` knob is a knob nobody can find
        (``REPRO_COMPILE_CACHE_DIR`` lived that way for seven PRs)."""
        named = set()
        for path in (ROOT / "src").rglob("*.py"):
            named.update(
                re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8"))
            )
        assert named, "the scan found no REPRO_* names at all"
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        assert sorted(n for n in named if n not in readme) == []
