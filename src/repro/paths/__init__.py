"""Join paths and probability propagation (§2.1–§2.2 of the paper).

A join path is a chain of equi-join hops starting at the relation that holds
the references to be distinguished. The enumerator walks the schema graph to
produce all semantically meaningful paths up to a length bound;
propagation pushes probability mass along every path (Fig 3 of the
paper), for a whole batch of references at once, producing for each
reachable neighbor tuple ``t`` both ``Prob_P(r -> t)`` and
``Prob_P(t -> r)``.
"""

from repro.paths.joinpath import JoinPath
from repro.paths.enumerate import PathEnumerationConfig, enumerate_paths
from repro.paths.profiles import ProfileBuilder

__all__ = [
    "JoinPath",
    "PathEnumerationConfig",
    "enumerate_paths",
    "ProfileBuilder",
]
