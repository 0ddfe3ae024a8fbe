"""Built-in crowdlint rules.

Importing this package registers every rule with the engine registry; the
registry (not this module) is the source of truth for what runs.
"""

from . import (  # noqa: F401  (imported for registration side effects)
    concurrency,
    coordinates,
    datetimes,
    determinism,
    exceptions,
    exports,
    imports,
    lifecycle,
    mutable_defaults,
    observability,
    perf,
    threadsafety,
    units,
)
