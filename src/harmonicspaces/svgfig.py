"""Minimal SVG emitter: line and point primitives with a metadata block.

Figures are deterministic byte-for-byte for a fixed configuration, which
keeps them diffable in regression runs.
"""

from __future__ import annotations


def escape(text: str) -> str:
    # as xml.sax.saxutils.escape, whose import pulls in urllib.request
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


#: Side of the square figure in SVG user units.
SIZE = 480


class SvgFigure:
    __slots__ = ("x_range", "y_range", "metadata", "_body")

    def __init__(
        self,
        x_range: tuple[float, float] = (-1.5, 1.5),
        y_range: tuple[float, float] = (-1.5, 1.5),
        metadata: str = "",
    ):
        self.x_range = x_range
        self.y_range = y_range
        self.metadata = metadata
        self._body: list[str] = []

    def _sx(self, x: float) -> float:
        x0, x1 = self.x_range
        return (x - x0) / (x1 - x0) * SIZE

    def _sy(self, y: float) -> float:
        y0, y1 = self.y_range
        return SIZE - (y - y0) / (y1 - y0) * SIZE

    def line(self, p0, p1, color: str = "#333333", width: float = 1.0) -> None:
        self._body.append(
            f'<line x1="{self._sx(p0[0]):.2f}" y1="{self._sy(p0[1]):.2f}" '
            f'x2="{self._sx(p1[0]):.2f}" y2="{self._sy(p1[1]):.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polyline(self, points, color: str = "#333333", width: float = 1.0) -> None:
        coords = " ".join(f"{self._sx(x):.2f},{self._sy(y):.2f}" for x, y in points)
        self._body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>'
        )

    def circle(self, center, radius: float, color: str = "#333333", width: float = 1.0) -> None:
        rx = radius / (self.x_range[1] - self.x_range[0]) * SIZE
        self._body.append(
            f'<circle cx="{self._sx(center[0]):.2f}" cy="{self._sy(center[1]):.2f}" '
            f'r="{rx:.2f}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def dot(self, p, radius: float = 1.2, color: str = "#1f3b70") -> None:
        self._body.append(
            f'<circle cx="{self._sx(p[0]):.2f}" cy="{self._sy(p[1]):.2f}" '
            f'r="{radius}" fill="{color}"/>'
        )

    def dots(self, xs, ys, ks, radius: float = 1.2, color: str = "#1f3b70") -> None:
        """One dot per flat index k of the raster with numpy axes xs and ys,
        at (xs[k % len(xs)], ys[k // len(xs)]), as dot would draw it.

        Each axis is formatted once.  _sx and _sy run as array expressions:
        the same IEEE operations in the same order, so the same bits before
        formatting.
        """
        heads = [f'<circle cx="{cx:.2f}" cy="' for cx in self._sx(xs).tolist()]
        tails = [f'{cy:.2f}" r="{radius}" fill="{color}"/>' for cy in self._sy(ys).tolist()]
        n = len(heads)
        self._body.extend(heads[k % n] + tails[k // n] for k in ks.tolist())

    def text(self, p, s: str, size: int = 12, color: str = "#222222") -> None:
        self._body.append(
            f'<text x="{self._sx(p[0]):.2f}" y="{self._sy(p[1]):.2f}" '
            f'font-size="{size}" fill="{color}">{escape(s)}</text>'
        )

    def render(self) -> str:
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
            f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        ]
        if self.metadata:
            parts.append(f"<metadata>{escape(self.metadata)}</metadata>")
        parts.append(f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')
        parts.extend(self._body)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
