"""`svgplot.write_line_chart` at its edges: a flat chart and each rejection."""

import math
import xml.etree.ElementTree as ET

import pytest

from pmleak.svgplot import MARGIN_LEFT, Series, write_line_chart

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
