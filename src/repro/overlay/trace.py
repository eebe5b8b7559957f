"""A clip2/DSS-style overlay trace format.

The original traces (``dss.clip2.com``) were text exports of Gnutella
crawls; each record carried a node identifier, IP address, host name, port,
measured ping time and the advertised access speed.  The paper states that
only the **ID, IP and ping time** fields are actually used by its
simulations.

This module defines an equivalent plain-text format so that the rest of the
code base is written against a *trace file* exactly as the paper's simulator
was, and so that users with access to real Gnutella crawl data can convert
it into this format and run the experiments unchanged.

File format
-----------
One record per line, ``|``-separated::

    # comment lines start with '#'
    <id>|<ip>|<host>|<port>|<ping_ms>|<speed_kbps>|<neighbour ids comma-separated>

The neighbour list encodes the crawled overlay edges (it may be empty; the
paper adds random edges on top of the crawl anyway -- see
:mod:`repro.overlay.augment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Sequence, Union

__all__ = ["TraceNode", "TraceRecordError", "parse_trace", "parse_trace_lines", "write_trace"]


class TraceRecordError(ValueError):
    """Raised when a trace line cannot be parsed."""


@dataclass(frozen=True)
class TraceNode:
    """One node record of an overlay trace.

    Attributes
    ----------
    node_id:
        Integer node identifier, unique within the trace.
    ip:
        Dotted-quad IP address (only used as an opaque label).
    host:
        Host name (opaque label; may be empty).
    port:
        TCP port of the servent.
    ping_ms:
        Measured ping time in milliseconds; used as the propagation latency
        towards this node.
    speed_kbps:
        Advertised access speed in kbit/s; used to classify the node into a
        bandwidth class when no explicit bandwidth assignment is supplied.
    neighbours:
        Node ids of crawled overlay edges (undirected).
    """

    node_id: int
    ip: str
    host: str = ""
    port: int = 6346
    ping_ms: float = 50.0
    speed_kbps: float = 1000.0
    neighbours: tuple[int, ...] = field(default_factory=tuple)

    def to_line(self) -> str:
        """Serialise the record to one trace-file line."""
        neigh = ",".join(str(n) for n in self.neighbours)
        return (
            f"{self.node_id}|{self.ip}|{self.host}|{self.port}|"
            f"{self.ping_ms:g}|{self.speed_kbps:g}|{neigh}"
        )


def _parse_line(line: str, lineno: int) -> TraceNode:
    parts = line.split("|")
    if len(parts) != 7:
        raise TraceRecordError(
            f"line {lineno}: expected 7 '|'-separated fields, got {len(parts)}: {line!r}"
        )
    raw_id, ip, host, port, ping, speed, neigh = (p.strip() for p in parts)
    try:
        node_id = int(raw_id)
        port_i = int(port)
        ping_f = float(ping)
        speed_f = float(speed)
    except ValueError as exc:
        raise TraceRecordError(f"line {lineno}: malformed numeric field in {line!r}") from exc
    if ping_f < 0:
        raise TraceRecordError(f"line {lineno}: negative ping time {ping_f!r}")
    if speed_f < 0:
        raise TraceRecordError(f"line {lineno}: negative speed {speed_f!r}")
    try:
        neighbours = tuple(int(x) for x in neigh.split(",") if x.strip() != "")
    except ValueError as exc:
        raise TraceRecordError(f"line {lineno}: malformed neighbour list in {line!r}") from exc
    return TraceNode(
        node_id=node_id,
        ip=ip,
        host=host,
        port=port_i,
        ping_ms=ping_f,
        speed_kbps=speed_f,
        neighbours=neighbours,
    )


def parse_trace_lines(lines: Iterable[str]) -> List[TraceNode]:
    """Parse trace records from an iterable of lines.

    Comment lines (starting with ``#``) and blank lines are skipped.
    Duplicate node ids raise :class:`TraceRecordError`.
    """
    nodes: List[TraceNode] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        node = _parse_line(line, lineno)
        if node.node_id in seen:
            raise TraceRecordError(f"line {lineno}: duplicate node id {node.node_id}")
        seen.add(node.node_id)
        nodes.append(node)
    return nodes


def parse_trace(path: Union[str, Path]) -> List[TraceNode]:
    """Parse a trace file from ``path``."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return parse_trace_lines(handle)


def write_trace(
    nodes: Sequence[TraceNode],
    path: Union[str, Path],
    *,
    header: str = "",
) -> None:
    """Write ``nodes`` to ``path`` in the trace format.

    Parameters
    ----------
    nodes:
        Records to serialise.
    path:
        Destination file path (parent directories must exist).
    header:
        Optional comment placed at the top of the file.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# repro overlay trace (clip2/DSS-style)\n")
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write("# id|ip|host|port|ping_ms|speed_kbps|neighbours\n")
        for node in nodes:
            handle.write(node.to_line() + "\n")
