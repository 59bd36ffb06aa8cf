"""2D mesh topology with dimension-order (XY) routing."""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Tuple


class Coord(NamedTuple):
    """A tile coordinate on the mesh: x grows east, y grows south.

    A tuple, so the hashing and comparing that every Coord-keyed dict
    lookup on the packet path does run in C.
    """

    x: int
    y: int

    def manhattan(self, other: "Coord") -> int:
        """Manhattan (hop) distance to another coordinate."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


class MeshTopology:
    """A ``width x height`` 2D mesh of tiles.

    Tiles are addressed by :class:`Coord`.  Links are bidirectional pairs
    of unidirectional channels between 4-neighbours.  Routing is
    deterministic XY (route fully in x, then in y), which is deadlock-free
    on a mesh and makes hop sequences reproducible.
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"mesh dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of tiles."""
        return self.width * self.height

    def contains(self, coord: Coord) -> bool:
        """True if the coordinate is on the mesh."""
        return 0 <= coord.x < self.width and 0 <= coord.y < self.height

    def require(self, coord: Coord) -> None:
        """Raise ValueError for off-mesh coordinates."""
        if not self.contains(coord):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height} mesh")

    def coords(self) -> Iterator[Coord]:
        """All coordinates in row-major order."""
        for y in range(self.height):
            for x in range(self.width):
                yield Coord(x, y)

    def index_of(self, coord: Coord) -> int:
        """Row-major linear index of a coordinate."""
        self.require(coord)
        return coord.y * self.width + coord.x

    def coord_of(self, index: int) -> Coord:
        """Inverse of :meth:`index_of`."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside mesh of size {self.size}")
        return Coord(index % self.width, index // self.width)

    def neighbours(self, coord: Coord) -> List[Coord]:
        """The 2-4 mesh neighbours of a coordinate, deterministic order (E,W,S,N)."""
        self.require(coord)
        candidates = [
            Coord(coord.x + 1, coord.y),
            Coord(coord.x - 1, coord.y),
            Coord(coord.x, coord.y + 1),
            Coord(coord.x, coord.y - 1),
        ]
        return [c for c in candidates if self.contains(c)]

    def links(self) -> List[Tuple[Coord, Coord]]:
        """All directed links (both directions of every mesh edge)."""
        out: List[Tuple[Coord, Coord]] = []
        for coord in self.coords():
            for nb in self.neighbours(coord):
                out.append((coord, nb))
        return out

    # ------------------------------------------------------------------
    def xy_route(self, src: Coord, dst: Coord) -> List[Coord]:
        """The XY route from src to dst inclusive of both endpoints.

        First corrects x (east/west), then y (north/south).  Returns
        ``[src]`` when src == dst.
        """
        self.require(src)
        self.require(dst)
        path = [src]
        current = src
        step_x = 1 if dst.x > src.x else -1
        while current.x != dst.x:
            current = Coord(current.x + step_x, current.y)
            path.append(current)
        step_y = 1 if dst.y > src.y else -1
        while current.y != dst.y:
            current = Coord(current.x, current.y + step_y)
            path.append(current)
        return path

    def route_avoiding(
        self, src: Coord, dst: Coord, blocked: "frozenset[Tuple[Coord, Coord]]"
    ) -> List[Coord]:
        """Shortest route avoiding blocked directed links (BFS fallback).

        Used by the adaptive-routing option when links have failed.  Raises
        ``ValueError`` if no route exists.
        """
        self.require(src)
        self.require(dst)
        if src == dst:
            return [src]
        frontier = [src]
        parent: Dict[Coord, Coord] = {src: src}
        while frontier:
            next_frontier: List[Coord] = []
            for coord in frontier:
                for nb in self.neighbours(coord):
                    if nb in parent or (coord, nb) in blocked:
                        continue
                    parent[nb] = coord
                    if nb == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    next_frontier.append(nb)
            frontier = next_frontier
        raise ValueError(f"no route from {src} to {dst} avoiding {len(blocked)} failed links")

    def center(self) -> Coord:
        """The (rounded-down) central coordinate, a natural client location."""
        return Coord(self.width // 2, self.height // 2)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MeshTopology {self.width}x{self.height}>"
