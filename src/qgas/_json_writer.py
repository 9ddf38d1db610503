"""The tables' JSON writer, a module of its own so that only a process writing JSON compiles it."""


def to_json(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it after ``pad``; a nan or inf raises."""
    if isinstance(value, float) and value - value == 0.0:  # finite: nan and inf give nan
        return float.__repr__(value)  # as json writes a float subclass, such as numpy's
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):  # the tables' strings are a fixed vocabulary, with nothing to escape
        return f'"{value}"'
    if isinstance(value, dict):
        text = f",\n{pad}  ".join([f'"{k}": {to_json(v, pad + "  ")}' for k, v in value.items()])
        return f"{{\n{pad}  {text}\n{pad}}}" if value else "{}"
    if isinstance(value, (list, tuple)):
        text = f",\n{pad}  ".join([to_json(v, pad + "  ") for v in value])
        return f"[\n{pad}  {text}\n{pad}]" if value else "[]"
    raise ValueError(f"not a finite float, bool, None, string, tuple, list or dict: {value!r}")
