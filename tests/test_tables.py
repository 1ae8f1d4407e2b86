import pytest

from pmleak.tables import ResultTable


def test_whole_columns_give_the_rows_cells():
    table = ResultTable({"y": [0.1, (0, 1), 'a"b', None, True, 3],
                         "v": [1.0, 2.5, float("nan"), -0.0, 1e300, 7]},
                        meta={"span": (1.0, 2)})
    # floats at 17 digits; a cell with a comma or quote quoted as in RFC 4180
    assert table.to_csv(reproducible=True) == (
        "# span = (1.0, 2)\n"
        "y,v\n"
        "0.10000000000000001,1\n"
        '"(0, 1)",2.5\n'
        '"a""b",nan\n'
        ",-0\n"
        "true,1.0000000000000001e+300\n"
        "3,7\n")


def test_a_timestamp_unless_reproducible():
    lines = ResultTable({"n": [1]}).to_csv().splitlines()
    assert lines[0].startswith("# generated-at = ") and lines[1:] == ["n", "1"]


def test_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="column length mismatch"):
        ResultTable({"a": [1, 2], "b": [1]})
