"""Evaluate the infix text ``to_infix`` writes as Python arithmetic."""
import math

_SCOPE = {"sqrt": lambda v: math.sqrt(max(v, 0.0)), "abs": abs, "inf": math.inf,
          "nan": math.nan}


def infix_eval(text, env):
    return eval(text.replace("^", "**"), {"__builtins__": {}}, {**_SCOPE, **env})
