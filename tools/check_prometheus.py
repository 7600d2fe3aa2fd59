#!/usr/bin/env python3
"""Validate a Prometheus text-exposition (format 0.0.4) file.

Usage: check_prometheus.py metrics.txt

Checks, beyond "every line parses":
  - metric names match [a-zA-Z_:][a-zA-Z0-9_:]*
  - every sample is preceded by a # TYPE declaration for its family
    (histogram samples belong to the family without the _bucket/_sum/_count
    suffix)
  - counter sample names end in _total
  - histogram families have: at least one _bucket line, an le="+Inf" bucket,
    non-decreasing cumulative bucket counts in file order, a _sum and a
    _count, with _count equal to the +Inf bucket
  - sample values are valid numbers

Exit 0 when the file is a valid exposition with at least one sample; 1
otherwise, with one line per problem. Stdlib only (runs in CI).

RenderPrometheusText() (src/util/metrics.cc) is the producer under test;
crashsim_cli --metrics_out wires it to disk and crashsim_serve to
GET /metrics.
"""

import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name{labels} value  |  name value   (no timestamp support: we never emit it)
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
LE_RE = re.compile(r'le="([^"]+)"')


def base_family(sample_name, types):
    """Maps _bucket/_sum/_count samples of a declared histogram back to it."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if types.get(family) == "histogram":
                return family
    return sample_name


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    path = sys.argv[1]
    errors = []
    types = {}  # family -> declared type
    samples = 0
    # histogram family -> {"buckets": [(le, value)], "sum": v, "count": v}
    histograms = {}

    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 2 and parts[1] == "TYPE":
                    if len(parts) != 4:
                        errors.append(f"line {lineno}: malformed TYPE: {line}")
                        continue
                    _, _, family, kind = parts
                    if not NAME_RE.match(family):
                        errors.append(
                            f"line {lineno}: bad metric name {family!r}")
                    if kind not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                        errors.append(
                            f"line {lineno}: unknown metric type {kind!r}")
                    if family in types:
                        errors.append(
                            f"line {lineno}: duplicate TYPE for {family}")
                    types[family] = kind
                    if kind == "histogram":
                        histograms[family] = {
                            "buckets": [], "sum": None, "count": None}
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                errors.append(f"line {lineno}: unparseable sample: {line!r}")
                continue
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            try:
                float(value)
            except ValueError:
                errors.append(f"line {lineno}: non-numeric value {value!r}")
                continue
            samples += 1
            family = base_family(name, types)
            kind = types.get(family)
            if kind is None:
                errors.append(
                    f"line {lineno}: sample {name} has no # TYPE declaration")
                continue
            if kind == "counter" and not name.endswith("_total"):
                errors.append(
                    f"line {lineno}: counter sample {name} must end _total")
            if kind == "histogram":
                h = histograms[family]
                if name.endswith("_bucket"):
                    le = LE_RE.search(labels)
                    if not le:
                        errors.append(
                            f"line {lineno}: histogram bucket without le: "
                            f"{line!r}")
                    else:
                        h["buckets"].append((le.group(1), float(value)))
                elif name.endswith("_sum"):
                    h["sum"] = float(value)
                elif name.endswith("_count"):
                    h["count"] = float(value)

    for family, h in histograms.items():
        if not h["buckets"]:
            errors.append(f"histogram {family}: no _bucket samples")
            continue
        les = [le for le, _ in h["buckets"]]
        if les[-1] != "+Inf":
            errors.append(f"histogram {family}: last bucket le={les[-1]!r}, "
                          "expected +Inf")
        counts = [v for _, v in h["buckets"]]
        if any(b < a for a, b in zip(counts, counts[1:])):
            errors.append(
                f"histogram {family}: bucket counts are not cumulative "
                f"non-decreasing: {counts}")
        if h["sum"] is None:
            errors.append(f"histogram {family}: missing _sum")
        if h["count"] is None:
            errors.append(f"histogram {family}: missing _count")
        elif les[-1] == "+Inf" and h["count"] != counts[-1]:
            errors.append(
                f"histogram {family}: _count {h['count']} != +Inf bucket "
                f"{counts[-1]}")

    if samples == 0:
        errors.append("no samples found")
    for e in errors:
        print(f"{path}: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"{path}: OK ({samples} samples, {len(types)} metric families)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
