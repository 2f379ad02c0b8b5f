"""IPA: invariant-preserving applications for weakly-consistent
replicated databases.

A complete reproduction of Balegas et al. (arXiv:1802.08474): a static
analysis that makes applications correct under weak consistency by
modifying their operations at development time, plus every substrate it
runs on -- spec language, bounded model finder, CRDT library,
causally-consistent replicated store, geo simulation, and the paper's
four evaluation applications.

The most common entry points are re-exported here::

    from repro import SpecBuilder, run_ipa

    spec = ...                     # build the specification
    result = run_ipa(spec)         # analyse + repair (Algorithm 1)
    result.modified                # the invariant-preserving spec

See the subpackages for the full API:

- :mod:`repro.spec` -- specifications (invariants, operations, rules);
- :mod:`repro.analysis` -- conflict detection, repair, compensations;
- :mod:`repro.crdts` -- the convergent data types of §4.2;
- :mod:`repro.store` / :mod:`repro.sim` -- the simulated geo-replicated
  store and testbed;
- :mod:`repro.runtime` -- run a (patched) spec directly on the store;
- :mod:`repro.apps` / :mod:`repro.bench` -- the paper's evaluation.
"""

from repro.analysis import run_ipa
from repro.errors import ReproError
from repro.spec import ApplicationSpec, SpecBuilder, merge_specs
from repro.specfile import load_specfile, parse_specfile

__version__ = "1.0.0"

__all__ = [
    "ApplicationSpec",
    "ReproError",
    "SpecBuilder",
    "__version__",
    "load_specfile",
    "merge_specs",
    "parse_specfile",
    "run_ipa",
]
