"""`svgplot.write_line_chart` at its edges: a flat chart and each rejection."""

import math
import xml.etree.ElementTree as ET

import pytest

from pmleak.svgplot import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, Series, write_line_chart

SVG = "{http://www.w3.org/2000/svg}"
LABELS = dict(title="t", xlabel="x", ylabel="y")


def test_flat_chart_widens_its_y_range(tmp_path):
    # every y, the hline's too, is 0.5: the range widens to [0, 1] and is
    # padded by 4 %, so the flat line sits mid-plot
    path = tmp_path / "flat.svg"
    write_line_chart(path, [Series("a", (1.0, 2.0, 3.0), (0.5, 0.5, 0.5))],
                     hlines=[("cap", 0.5)], logx=False, **LABELS)
    root = ET.parse(path).getroot()
    y_ticks = [t.text for t in root.iter(f"{SVG}text") if t.get("x") == str(MARGIN_LEFT - 7)]
    assert y_ticks == ["0", "0.25", "0.5", "0.75", "1"]
    points = root.find(f"{SVG}polyline").get("points").split()
    assert [p.split(",")[1] for p in points] == ["222.00"] * 3
    hline = next(line for line in root.iter(f"{SVG}line") if line.get("stroke") == "gray")
    assert hline.get("y1") == hline.get("y2") == "222.0"


def coordinates(root):
    """Every coordinate the chart puts on the page."""
    for element in root.iter():
        yield from (float(element.get(a)) for a in ("x", "y", "x1", "y1", "x2", "y2")
                    if element.get(a) is not None)
        if element.tag == f"{SVG}polyline":
            yield from (float(c) for p in element.get("points").split() for c in p.split(","))


@pytest.mark.parametrize("value", [1e16, -1e16, 1e17, 1e300, -1e300])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_flat_chart_at_a_large_value(tmp_path, axis, value):
    # +-0.5 rounds away at |v| >= 2^53, so a flat range widens by 2^-40 |v|:
    # at least 2^12 ulps, and the ticks advance, each with its own label
    # (at 4 significant digits they all read "1e+16")
    path = tmp_path / "flat.svg"
    flat, other = (value, value), (1.0, 2.0)
    xs, ys = (flat, other) if axis == "x" else (other, flat)
    write_line_chart(path, [Series("a", xs, ys)], hlines=[], logx=False, **LABELS)
    root = ET.parse(path).getroot()
    assert all(math.isfinite(c) for c in coordinates(root))
    x_ticks = [t for t in root.iter(f"{SVG}text") if t.get("y") == str(HEIGHT - MARGIN_BOTTOM + 18)]
    y_ticks = [t for t in root.iter(f"{SVG}text") if t.get("x") == str(MARGIN_LEFT - 7)]
    assert 2 <= len(x_ticks) <= 7 and 2 <= len(y_ticks) <= 7
    for ticks in (x_ticks, y_ticks):
        assert len({t.text for t in ticks}) == len(ticks), [t.text for t in ticks]


@pytest.mark.parametrize("make, logx, message", [
    pytest.param(lambda: [Series("a", (1.0, 2.0), (1.0,))], False,
                 "^series x/y length mismatch$", id="unequal-lengths"),
    pytest.param(lambda: [Series("a", (), ())], False, "^empty series$", id="empty-series"),
    pytest.param(lambda: [], False, "^nothing to plot$", id="no-series"),
    pytest.param(lambda: [Series("a", (0.0, 1.0), (1.0, 2.0))], True,
                 "^log x-axis requires positive x$", id="logx-at-zero"),
    pytest.param(lambda: [Series("a", (1.0, 2.0), (math.nan, math.inf))], False,
                 "^no finite y values to plot$", id="no-finite-y"),
])
def test_rejections(tmp_path, make, logx, message):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError, match=message):
        write_line_chart(path, make(), hlines=[], logx=logx, **LABELS)
    assert not path.exists()
