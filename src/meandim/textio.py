"""The one text format of every meandim file and table.

Artifacts, checkpoints and configs are ASCII text with LF line ends and
exactly one trailing newline. CSV tables have a header row; a string cell
is written as is, an int through ``str`` and any other number as the
``repr`` of its float, so every float reads back exactly.
"""

__all__ = ["read_text", "write_text", "lines_text", "csv_lines"]


def read_text(path) -> str:
    """The file's text; a byte outside ASCII raises ValueError naming path."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text (byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start})") from None


def lines_text(lines) -> str:
    """Join lines with LF and end with exactly one newline."""
    return "\n".join(lines) + "\n"


def write_text(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(lines_text(lines))


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def csv_lines(header, rows) -> list:
    """The header line (column names joined by commas), then one line per row."""
    return [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
