"""Executing generated hot-path source with compiled code cached.

Predictors, histories and the warmer specialise their hot loops by
generating Python source per geometry (constants inlined, loops
unrolled).  The source depends only on the geometry, so every pipeline
of a configuration generates the same text: compiling it once per
process and re-executing the code object per instance keeps pipeline
construction free of the compiler.
"""

from __future__ import annotations

from types import CodeType

#: source text -> compiled module code.  Bounded by the number of
#: distinct geometries a process simulates.
_CODE_CACHE: dict[str, CodeType] = {}


def define(source: str, env: dict, name: str):
    """Run *source* with globals *env* and return the object it binds
    to *name* (a fresh function closing over this *env*)."""
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, f"<generated {name}>", "exec")
        _CODE_CACHE[source] = code
    exec(code, env)  # noqa: S102 - generated from static templates
    return env[name]
