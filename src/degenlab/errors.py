"""Exception types shared across the package, and the signature binding
that names the unknown and missing fields of a document."""

import inspect


class DomainError(ValueError):
    """Evaluation point lies outside the declared domain box."""


class SchemaError(ValueError):
    """Malformed scenario or profile document; message names the field."""


class ResourceLimitError(RuntimeError):
    """Requested mesh or workload exceeds a configured cap."""


class SolverError(RuntimeError):
    """Linear solve failed to reach its residual target."""


class CflError(RuntimeError):
    """Leapfrog iteration became unstable (norm growth beyond guard)."""


class InconclusiveIntegralError(RuntimeError):
    """Graded quadrature exhausted its budget without settling
    convergent-vs-divergent; the caller decides how to proceed."""


def bind(sig, *args, **fields):
    """sig.bind(*args, **fields), with every unknown field named.

    Signature.bind stops at the first missing parameter before it looks at
    unexpected ones, so a misspelled required field would read only as
    missing; here the unknown fields are listed first.  Raises TypeError."""
    by_name = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    named = {k for k, p in sig.parameters.items() if p.kind in by_name}
    unknown = [k for k in fields if k not in named]
    problems = [f"unknown field(s) {', '.join(map(repr, unknown))}"] if unknown else []
    try:
        bound = sig.bind(*args, **{k: v for k, v in fields.items() if k in named})
    except TypeError as exc:
        problems.append(str(exc))
    if problems:
        raise TypeError("; ".join(problems))
    return bound
