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


def bind_documents(parts):
    """Bind each (where, fn, args, fields) of parts, fields a JSON object,
    against fn's signature after args; one SchemaError names every field
    that is unknown or missing and every part that is not an object."""
    problems = []
    for where, fn, args, fields in parts:
        if not isinstance(fields, dict):
            problems.append(f"{where} is an object, not {fields!r}")
            continue
        try:
            bind(inspect.signature(fn), *args, **fields)
        except TypeError as exc:
            problems.append(f"{where}: {exc}")
    if problems:
        raise SchemaError("; ".join(problems))
