"""nestedfds — FDs and MVDs in the presence of lists.

A faithful, from-scratch implementation of

    Sven Hartmann and Sebastian Link,
    *A Membership Algorithm for Functional and Multi-valued Dependencies
    in the Presence of Lists*, ENTCS 91 (2004) 171–194,

covering the nested-attribute data model (base, record and finite list
types), the Brouwerian algebra of subattributes, FD/MVD semantics, the
sound-and-complete axiomatisation, the polynomial membership algorithm
(Algorithm 5.1), the completeness witness construction, the relational
specialisation, and 4NF-style normalisation built on top.

Quick start
-----------
>>> from repro import Schema
>>> schema = Schema("Pubcrawl(Person, Visit[Drink(Beer, Pub)])")
>>> sigma = schema.dependencies(
...     "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
>>> schema.implies(sigma, "Pubcrawl(Person) -> Pubcrawl(Visit[λ])")
True

The high-level :class:`Schema` facade wraps composable building blocks:

* :mod:`repro.attributes` — the type algebra (Section 3 of the paper),
* :mod:`repro.values` — domains, projections, generalised joins,
* :mod:`repro.dependencies` — FDs/MVDs and satisfaction (Section 4),
* :mod:`repro.inference` — the Theorem 4.6 rules and naive derivation,
* :mod:`repro.core` — Algorithm 5.1 and the membership API (Sections 5–6),
* :mod:`repro.witness` — the Section 4.2 completeness construction,
* :mod:`repro.relational` — flat schemas and the classic Beeri baseline,
* :mod:`repro.normalization` — keys, generalised 4NF, decomposition,
* :mod:`repro.viz` — Hasse-diagram reproductions of Figures 1–4,
* :mod:`repro.workloads` — benchmark generators and paper fixtures.
"""

from .attributes import (
    NULL,
    BasisEncoding,
    Flat,
    ListAttr,
    NestedAttribute,
    Record,
    Universe,
    flat,
    list_of,
    parse_attribute,
    parse_subattribute,
    record,
    unparse,
    unparse_abbreviated,
)
from .core import (
    Session,
    TraceRecorder,
    available_engines,
    closure,
    compute_closure,
    dependency_basis,
    equivalent,
    get_engine,
    implies,
    implies_every,
    is_redundant,
    minimal_cover,
    set_default_engine,
)
from .dependencies import (
    FD,
    MVD,
    DependencySet,
    FunctionalDependency,
    MultivaluedDependency,
    parse_dependency,
    satisfies,
    satisfies_all,
)
from .chase import ChaseFailure, ChaseResult, chase
from .normalization import decompose_4nf, is_in_4nf
from .schema import Schema
from .witness import Witness, build_witness

__version__ = "1.0.0"

__all__ = [
    "Schema",
    # attributes
    "NestedAttribute", "Flat", "Record", "ListAttr", "NULL",
    "flat", "record", "list_of",
    "parse_attribute", "parse_subattribute", "unparse", "unparse_abbreviated",
    "BasisEncoding", "Universe",
    # dependencies
    "FunctionalDependency", "MultivaluedDependency", "FD", "MVD",
    "DependencySet", "parse_dependency", "satisfies", "satisfies_all",
    # core
    "implies", "implies_every", "closure", "dependency_basis",
    "equivalent", "is_redundant", "minimal_cover", "compute_closure",
    "TraceRecorder", "Session",
    "available_engines", "get_engine", "set_default_engine",
    # witness / normalisation / chase
    "Witness", "build_witness", "is_in_4nf", "decompose_4nf",
    "chase", "ChaseResult", "ChaseFailure",
    "__version__",
]
