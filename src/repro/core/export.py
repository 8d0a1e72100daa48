"""Result export for multiple graphics packages.

Section 2.3: "Another goal is to take advantage of existing software
when available ... Having the ability to handle multiple graphics
packages, for example, will allow a particular code to be incorporated
without the need to convert its output."

Three era-appropriate writers over one adapter interface: CSV (for
generic plotting tools), the AVS *field* format (the 1-D uniform field
ASCII header AVS modules read) and a Khoros-flavoured ASCII export.
All consume the same column-oriented view of a result, so adding
another package is one subclass.  ``examples/engine_test_cell.py``
writes one interactive run through all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from ..tess.engine import TransientResult
from ..tess.profile import ProfileResult

__all__ = ["columns_of", "GraphicsWriter", "CSVWriter", "AVSFieldWriter", "KhorosWriter"]

Result = Union[TransientResult, ProfileResult]


def columns_of(result: Result) -> Dict[str, np.ndarray]:
    """The column view a writer consumes: name -> 1-D array."""
    if isinstance(result, TransientResult):
        return {
            "t": result.t, "n1": result.n1, "n2": result.n2,
            "thrust": result.thrust, "t4": result.t4, "wf": result.wf,
        }
    if isinstance(result, ProfileResult):
        return {
            "t": result.t, "altitude": result.altitude, "mach": result.mach,
            "wf": result.wf, "n1": result.n1, "n2": result.n2,
            "thrust": result.thrust, "t4": result.t4,
        }
    raise TypeError(f"cannot export {type(result).__name__}")


class GraphicsWriter:
    """One output format for simulation results: a subclass defines
    ``render(columns) -> str`` over :func:`columns_of`'s view."""

    #: file suffix the package expects
    suffix: str = ""

    def export(self, result: Result) -> str:
        columns = columns_of(result)
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        return self.render(columns)


@dataclass
class CSVWriter(GraphicsWriter):
    """Plain comma-separated values with a header row."""

    suffix = ".csv"
    precision: int = 9

    def render(self, columns: Dict[str, np.ndarray]) -> str:
        names = list(columns)
        lines = [",".join(names)]
        n = len(next(iter(columns.values())))
        fmt = f"%.{self.precision}g"
        for i in range(n):
            lines.append(",".join(fmt % columns[name][i] for name in names))
        return "\n".join(lines) + "\n"


@dataclass
class KhorosWriter(GraphicsWriter):
    """A Khoros-flavoured ASCII export (the paper names Khoros as the
    other visualization-system candidate).  Emits the ``xvimage``-style
    header fields Khoros tools key on, then whitespace-separated rows.
    """

    suffix = ".xv"

    def render(self, columns: Dict[str, np.ndarray]) -> str:
        names = list(columns)
        n = len(next(iter(columns.values())))
        header = [
            "# khoros xvimage (ascii)",
            f"row_size={n}",
            "col_size=1",
            f"num_data_bands={len(names)}",
            "data_storage_type=double",
            "comment=" + ",".join(names),
        ]
        body = [
            " ".join("%.9g" % columns[name][i] for name in names) for i in range(n)
        ]
        return "\n".join(header + body) + "\n"


@dataclass
class AVSFieldWriter(GraphicsWriter):
    """The AVS 1-D uniform field ASCII format: a ``# AVS`` header
    describing dimensionality and labels, then one row per sample."""

    suffix = ".fld"

    def render(self, columns: Dict[str, np.ndarray]) -> str:
        names = list(columns)
        n = len(next(iter(columns.values())))
        header = [
            "# AVS field file",
            "ndim=1",
            f"dim1={n}",
            "nspace=1",
            f"veclen={len(names)}",
            "data=double",
            "field=uniform",
            "label=" + " ".join(names),
        ]
        body = [
            " ".join("%.9g" % columns[name][i] for name in names) for i in range(n)
        ]
        return "\n".join(header + body) + "\n"
