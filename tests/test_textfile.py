import pytest

from ndga import forms, ncomplex, riemann, textfile


def metric_key(metric):
    return metric.g, metric.inverse_power, metric._numerators, metric._u


# (format, parser, key of the parsed object, plain file, a bad line and the
# error it must give when appended to the file)
FORMATS = [
    ("conn", forms.parse_connection, lambda c: c,
     "base 3\nfiber 2\nomega 1\nx2;0\n0;-x2\nomega 3\nsin(x1);1/2\n0;0\n",
     "omega 4", "coordinate index 4 out of range"),
    ("metric", riemann.parse_metric, metric_key,
     "dim 2\n2;1\n1;1\ninverse\n1;-1\n-1;2\n",
     "inverse", "unexpected content after the inverse block"),
    ("ncx", ncomplex.parse_complex, lambda c: c,
     "N 3\ndeg 0 dim 2\n1 0\n0 1/2\ndeg 1 dim 2\n1 1\n-1 -1\ndeg 2 dim 2\n",
     "1 x", "bad rational entry in '1 x'"),
]


def decorate(plain):
    """A leading comment, blank lines between rows, CRLF line endings and
    indented rows: content line k of `plain` lands on physical line 3 + 2k."""
    rows = ["  " + line for line in plain.splitlines()]
    return "# a leading comment\r\n\r\n" + "\r\n\r\n".join(rows) + "\r\n"


@pytest.mark.parametrize("name, parse, key, plain, bad_line, message", FORMATS,
                         ids=[f[0] for f in FORMATS])
def test_layout_does_not_change_the_parse(name, parse, key, plain, bad_line, message):
    assert key(parse(decorate(plain))) == key(parse(plain))
    with pytest.raises(textfile.InputFileError, match=message) as info:
        parse(decorate(plain + bad_line + "\n"))
    content_lines = len(plain.splitlines())
    assert info.value.line == 3 + 2 * content_lines
    assert str(info.value).startswith(f"line {3 + 2 * content_lines}: ")


def test_the_three_error_names_are_one_class():
    assert forms.ConnectionFileError is textfile.InputFileError
    assert riemann.MetricFileError is textfile.InputFileError
    assert ncomplex.ComplexFileError is textfile.InputFileError


def test_quote_clips_long_input():
    assert textfile.quote("x1+1") == "'x1+1'"
    clipped = textfile.quote("(" * 5000)
    assert clipped == repr("(" * textfile.QUOTE_CHARS) + "..."


def test_headers_name_the_expected_form():
    lines = textfile.Lines("deg 1 dim x\n")
    with pytest.raises(textfile.InputFileError, match="line 1: expected an integer after 'dim'"):
        lines.header("deg", "dim")
    lines = textfile.Lines("deg 1\n")
    with pytest.raises(textfile.InputFileError, match="expected 'deg <int> dim <int>'"):
        lines.header("deg", "dim")
    lines = textfile.Lines("# only a comment\n")
    with pytest.raises(textfile.InputFileError, match="line 1: missing 'base' header"):
        lines.header("base")
    assert textfile.Lines("deg -2 dim 3").header("deg", "dim") == (-2, 3)


def test_header_integers_are_ascii():
    # int() takes '1_0' as 10 and the Arabic-Indic '١' as 1
    for text, keyword in (("base 1_0", "base"), ("fiber ١", "fiber"), ("dim ²", "dim")):
        with pytest.raises(textfile.InputFileError,
                           match=f"line 1: expected an integer after '{keyword}'"):
            textfile.Lines(text).header(keyword)
    assert textfile.Lines("base +3").header("base") == 3


def test_read_reports_the_line_of_bad_bytes(tmp_path):
    path = tmp_path / "latin1.conn"
    path.write_bytes(b"base 2\r\nfiber 1\nomega 1\n\xe9\n")
    with pytest.raises(textfile.InputFileError, match="line 4: not UTF-8 text"):
        textfile.read(path)
    path.write_bytes(b"base 2\r\nfiber 1\n")
    assert forms.load_connection(path) == forms.parse_connection("base 2\nfiber 1\n")
