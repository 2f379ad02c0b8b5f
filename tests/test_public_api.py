"""Top-level public API tests."""

import glob
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
        """The ``REPRO_*`` names ``src/`` reads are exactly the ones the
        docs name: an undocumented knob is a knob nobody can find
        (``REPRO_COMPILE_CACHE_DIR`` lived that way for seven PRs), and
        a documented one the code no longer reads is a stale doc."""
        pattern = re.compile(r"REPRO_[A-Z_]+")
        sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
        named = set()
        scanned = 0
        for path in sources:
            named.update(pattern.findall(path.read_text(encoding="utf-8")))
            scanned += 1
        # The guard sits on the scan, not on its result (which may be
        # empty): it read every module of the package.
        modules = glob.glob(str(ROOT / "src" / "repro" / "**" / "*.py"), recursive=True)
        assert scanned >= len(modules) > 0
        documented = set()
        for doc in ("README.md", "DESIGN.md"):
            documented.update(pattern.findall((ROOT / doc).read_text(encoding="utf-8")))
        assert sorted(named) == sorted(documented)
