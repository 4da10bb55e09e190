"""The search report writer (`wproj.cli._emit` with points) against a
reference kept here: the dict-per-point report rendered whole, as the CLI
rendered it before it wrote each point from its ints.  The writer reads
the points packed, as a search hands them over; the reference reads the
hits they were packed from."""

import argparse
import csv
import io
import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wproj import classify
from wproj.cli import _emit
from wproj.search import PackedHits, SearchHit


def packed(w, hits) -> PackedHits:
    """The hits packed in their order, each repacking the keys before it
    when its coordinates are larger."""
    points = PackedHits(w)
    for h in hits:
        points.fit(max(map(abs, h.coords)))
        points.add(h.coords, h.wh_m)
    return points


def reference_report(fmt: str, result: dict, header: str, hits) -> str:
    doc = dict(result)
    doc["points"] = [
        {
            "coords": list(h.point.coords),
            "wh_m_power": h.wh_m,
            "vanishing": list(h.vanishing),
        }
        for h in hits
    ]
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k, v in doc.items():
            if isinstance(v, (dict, list, tuple)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"), default=str)
            writer.writerow([k, v])
        return buf.getvalue()
    lines = [header]
    for h in hits:
        m = h.point.w.m
        lines.append(":".join(str(c) for c in h.point.coords) + f"  wh^{m}={h.wh_m}")
    return "\n".join(lines) + "\n"


# coordinates of any sign and size, with the int64 edges called out
coordinate = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**40]),
)
# polynomial text with quotes, backslashes, control and non-ASCII characters
hypersurface = st.one_of(
    st.none(),
    st.text(),
    st.sampled_from(['x0 "x1"', "\\", "x₀² − ÿ", 'a,"b"\nc']),
)


@st.composite
def reports(draw):
    w = classify(draw(st.lists(st.integers(1, 6), min_size=2, max_size=4)))
    n = len(w.q)
    hits = []
    for _ in range(draw(st.integers(0, 6))):
        coords = draw(st.lists(coordinate, min_size=n, max_size=n))
        # zeros at drawn indices, leaving at least one coordinate nonzero
        for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
            coords[i] = 0
        coords = tuple(coords)
        assume(any(coords))
        hits.append(SearchHit(w, coords, draw(st.integers(0, 2**80))))
    result = {
        "schema_version": 1,
        "weights": str(w),
        "bound": str(draw(st.fractions(min_value=0, max_denominator=50))),
        "hypersurface": draw(hypersurface),
        "nonvanishing": sorted(draw(st.sets(st.integers(0, n - 1)))),
        "phase1_candidates": draw(st.integers(0, 10**6)),
        "phase2_candidates": draw(st.integers(0, 10**6)),
        "wall_time_seconds": round(draw(st.floats(0, 1000)), 3),
    }
    return w, result, f"# {len(hits)} points, wh^{w.m} <= 1", hits


@settings(max_examples=300, deadline=None)
@given(reports(), st.sampled_from(["plain", "json", "csv"]))
def test_writer_matches_reference(report, fmt):
    w, result, header, hits = report
    buf = io.StringIO()
    _emit(buf, argparse.Namespace(format=fmt), result, [header], packed(w, hits))
    assert buf.getvalue() == reference_report(fmt, result, header, hits)


def test_writer_matches_reference_on_named_cases():
    # the cases the property names explicitly: no points, a point with an
    # empty and one with a multi-index vanishing list, a coordinate above
    # 2^63, and a hypersurface with quotes and non-ASCII characters
    w = classify([2, 4, 6, 10])
    hits = [
        SearchHit(w, (2**64 + 1, -3, 0, 0), 7),
        SearchHit(w, (1, 1, 1, -1), 1),
    ]
    result = {
        "bound": "9/8",
        "hypersurface": 'x0 "é"',
        "nonvanishing": [0, 1],
        "wall_time_seconds": 0.5,
    }
    for fmt in ("plain", "json", "csv"):
        for points in ([], hits):
            buf = io.StringIO()
            _emit(buf, argparse.Namespace(format=fmt), result, ["#"], packed(w, points))
            assert buf.getvalue() == reference_report(fmt, result, "#", points)
