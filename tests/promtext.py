"""A strict, pure-python Prometheus text-exposition (0.0.4) parser.

Test infrastructure, not product code: the test suite round-trips
:func:`repro.obs.metrics.render_prometheus` output (every producer's
:class:`~repro.obs.metrics.MetricStore`) through this parser, and the CI
scrape-smoke and serve-smoke jobs validate a live ``/metrics`` body with
it (``python -m tests.promtext FILE`` checks a file).  Strictness is the point -- the
parser rejects everything the exposition format forbids that a sloppy
renderer might emit:

- samples for a metric appearing before its ``# TYPE`` header,
- a second ``# TYPE`` / ``# HELP`` for the same metric name,
- duplicate series (same name and label set),
- malformed label escaping (raw newlines, stray backslashes),
- a body that does not end with a newline.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field


class PromParseError(ValueError):
    """The exposition body violates the 0.0.4 text format."""


@dataclass(frozen=True)
class Sample:
    """One series sample: ``name{labels} value``."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


@dataclass
class Family:
    """One metric family: the ``# TYPE`` header plus its samples."""

    name: str
    type: str
    help: str | None = None
    samples: list[Sample] = field(default_factory=list)


#: Suffixes that attach a sample to its base family for summary types.
_SUMMARY_SUFFIXES = ("_sum", "_count")


def _family_name(sample_name: str, families: dict[str, Family]) -> str:
    """The family a sample belongs to (summaries own _sum/_count)."""
    if sample_name in families:
        return sample_name
    for suffix in _SUMMARY_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families and families[base].type == "summary":
                return base
    return sample_name


def _unescape_label_value(raw: str, line_no: int) -> str:
    """Undo ``\\\\``, ``\\"`` and ``\\n`` escaping inside a quoted value."""
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            if i + 1 >= len(raw):
                raise PromParseError(f"line {line_no}: dangling backslash in label value")
            nxt = raw[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                raise PromParseError(
                    f"line {line_no}: invalid escape '\\{nxt}' in label value"
                )
            i += 2
            continue
        if ch == '"':
            raise PromParseError(f"line {line_no}: unescaped quote in label value")
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_labels(raw: str, line_no: int) -> tuple[tuple[str, str], ...]:
    """Parse the ``key="value",...`` body between braces."""
    labels: list[tuple[str, str]] = []
    i = 0
    while i < len(raw):
        eq = raw.find("=", i)
        if eq < 0:
            raise PromParseError(f"line {line_no}: label without '='")
        key = raw[i:eq].strip()
        if not key.replace("_", "a").isalnum():
            raise PromParseError(f"line {line_no}: invalid label name {key!r}")
        if eq + 1 >= len(raw) or raw[eq + 1] != '"':
            raise PromParseError(f"line {line_no}: label value must be quoted")
        # Scan for the closing unescaped quote.
        j = eq + 2
        while j < len(raw):
            if raw[j] == "\\":
                j += 2
                continue
            if raw[j] == '"':
                break
            j += 1
        else:
            raise PromParseError(f"line {line_no}: unterminated label value")
        value = _unescape_label_value(raw[eq + 2 : j], line_no)
        labels.append((key, value))
        i = j + 1
        if i < len(raw):
            if raw[i] != ",":
                raise PromParseError(f"line {line_no}: expected ',' between labels")
            i += 1
    return tuple(labels)


def _parse_sample_line(line: str, line_no: int) -> Sample:
    brace = line.find("{")
    if brace >= 0:
        close = line.rfind("}")
        if close < brace:
            raise PromParseError(f"line {line_no}: unbalanced braces")
        name = line[:brace]
        labels = _parse_labels(line[brace + 1 : close], line_no)
        rest = line[close + 1 :].strip()
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise PromParseError(f"line {line_no}: expected 'name value'")
        name, rest = parts[0], parts[1].strip()
        labels = ()
    if not name or not name.replace("_", "a").replace(":", "a").isalnum():
        raise PromParseError(f"line {line_no}: invalid metric name {name!r}")
    # A timestamp after the value is legal in 0.0.4; we don't emit them,
    # so reject to keep the round-trip strict.
    try:
        value = float(rest)
    except ValueError:
        raise PromParseError(f"line {line_no}: invalid sample value {rest!r}") from None
    return Sample(name, labels, value)


def parse(text: str) -> dict[str, Family]:
    """Parse one exposition body into families, strictly.

    Returns families keyed by metric name, each with its samples in
    input order.  Raises :class:`PromParseError` on any violation.
    """
    if text and not text.endswith("\n"):
        raise PromParseError("exposition body must end with a newline")
    families: dict[str, Family] = {}
    seen_series: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(None, 1)
            if not parts:
                raise PromParseError(f"line {line_no}: HELP without a metric name")
            name = parts[0]
            help_text = parts[1] if len(parts) > 1 else ""
            family = families.get(name)
            if family is not None:
                if family.help is not None:
                    raise PromParseError(f"line {line_no}: duplicate HELP for {name}")
                family.help = help_text
            else:
                families[name] = Family(name, type="", help=help_text)
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2:
                raise PromParseError(f"line {line_no}: malformed TYPE line")
            name, type_name = parts
            if type_name not in ("counter", "gauge", "summary", "histogram", "untyped"):
                raise PromParseError(f"line {line_no}: unknown type {type_name!r}")
            family = families.get(name)
            if family is not None:
                if family.type:
                    raise PromParseError(f"line {line_no}: duplicate TYPE for {name}")
                if family.samples:
                    raise PromParseError(
                        f"line {line_no}: TYPE for {name} after its samples"
                    )
                family.type = type_name
            else:
                families[name] = Family(name, type=type_name)
            continue
        if line.startswith("#"):
            continue  # free-form comment
        sample = _parse_sample_line(line, line_no)
        owner = _family_name(sample.name, families)
        family = families.get(owner)
        if family is None or not family.type:
            raise PromParseError(
                f"line {line_no}: sample {sample.name} before its # TYPE header"
            )
        key = (sample.name, sample.labels)
        if key in seen_series:
            raise PromParseError(
                f"line {line_no}: duplicate series {sample.name} {dict(sample.labels)}"
            )
        seen_series.add(key)
        family.samples.append(sample)
    for family in families.values():
        if not family.type:
            raise PromParseError(f"HELP without TYPE for {family.name}")
    return families


def main(argv: list[str] | None = None) -> int:
    """``python -m tests.promtext FILE`` -- validate an exposition body."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m tests.promtext FILE", file=sys.stderr)
        return 2
    try:
        with open(argv[0], encoding="utf-8") as handle:
            families = parse(handle.read())
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except PromParseError as error:
        print(f"invalid exposition: {error}", file=sys.stderr)
        return 1
    samples = sum(len(f.samples) for f in families.values())
    print(f"ok: {len(families)} families, {samples} samples")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
