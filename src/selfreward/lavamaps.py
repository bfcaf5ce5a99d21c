"""Lavaland's tile maps and map banks: generation, the file format and its checks.

A map is H x W rows of tile characters, ``TILE_CHARS``: g grass, d dirt,
l lava and y the one target, plus a spawn cell.  ``generate_map`` draws one
map from a generator: H x W uniforms u, one per cell in row-major order; a
cell is lava where u < lava_frac, else grass where u < lava_frac +
grass_frac, else dirt.  A draw that leaves fewer than two non-lava cells is
redrawn, up to ``MAP_TRIES`` times.  Then ``choice(n, size=2,
replace=False)`` over the n non-lava cells, in row-major order, picks the
spawn and then the target.  Map i of a bank is drawn from its own stream,
``default_rng(SeedSequence(seed, spawn_key=(i,)))``, so a bank is fixed by
its preset, seed and count.

A bank file is a JSON object written with sorted keys and one-space indent:
``format_version`` (1), ``preset`` (a ``PRESETS`` name), ``seed`` and
``maps``, a list of ``{"spawn": [row, col], "tiles": [row strings]}``.
``load_bank`` refuses a file the planner cannot use and names the map.

``lavaland gen`` imports this module alone; the planner, trainer and
evaluator live in ``lavaland``, which re-exports every name here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configs import check_fields

PALETTE = {
    "target": np.array([1.0, 1.0, 0.0]),
    "grass": np.array([0.0, 128.0, 0.0]) / 255.0,
    "dirt": np.array([139.0, 69.0, 19.0]) / 255.0,
    "lava": np.array([1.0, 0.0, 0.0]),
}
TILE_CHARS = {"grass": "g", "dirt": "d", "lava": "l", "target": "y"}
CHAR_TILES = {c: t for t, c in TILE_CHARS.items()}
PALETTE_RGB = np.array(list(PALETTE.values()))  # rows in PALETTE order
CHAR_INDEX = {TILE_CHARS[t]: i for i, t in enumerate(PALETTE)}


@dataclass
class LavaConfig:
    # 12x12 keeps the worst-case walk well inside the 36-step budget while
    # leaving enough hard maps that the untrained solve rate sits near the
    # reference range instead of saturating
    height: int = 12
    width: int = 12
    grass_frac: float = 0.3
    lava_frac: float = 0.0
    p_target: float = 2.0
    p_self: float = 1.0
    p_grass: float = -0.8
    p_dirt: float = 0.2
    unknown_avoidance: float = 2.0
    tau_recog: float = 1e-4
    selective_eps: float = 0.01
    max_steps: int = 36
    n_plans: int = 4
    explore_odds: float = 0.9
    anti_return: float = -0.9  # sign configurable; negative repels returns
    learning_rate: float = 1e-4

    def __post_init__(self):
        """Refuse values that map generation, the planner or the trainer cannot
        run on; each ValueError names its field."""
        check_fields(self, [
            *[(name, "at least 1", lambda v: v >= 1)
              for name in ("height", "width", "max_steps", "n_plans")],
            ("grass_frac", "in [0, 1]", lambda v: 0 <= v <= 1),
            ("lava_frac", "in [0, 1)", lambda v: 0 <= v < 1),
            *[(name, "finite", math.isfinite)
              for name in ("p_target", "p_self", "p_grass", "p_dirt", "anti_return")],
            ("unknown_avoidance", "at least 0 and finite", lambda v: 0 <= v < math.inf),
            ("tau_recog", "at least 0", lambda v: v >= 0),
            ("selective_eps", "positive", lambda v: v > 0),
            ("explore_odds", "in [0, 1]", lambda v: 0 <= v <= 1),
            ("learning_rate", "positive and finite", lambda v: 0 < v < math.inf),
        ])
        if self.height * self.width < 2:
            raise ValueError(f"height x width must hold at least 2 cells, "
                             f"got {self.height}x{self.width}")
        prefs = {f"p_{tile}": abs(p) for tile, p in self.preferences.items()}
        # The plan fields stay below max_steps * sum|p_*| * max(1, unknown_avoidance)
        # * max(1, |anti_return|)**max_steps.  Its log is summed term by term, since
        # a float ** past the largest float raises OverflowError; the refusal names
        # the field of the largest term.
        total = sum(prefs.values())  # inf if it overflows, which is refused below
        logs = {"max_steps": math.log(self.max_steps),
                max(prefs, key=prefs.get): math.log(total) if total else -math.inf,
                "unknown_avoidance": math.log(max(1.0, self.unknown_avoidance)),
                "anti_return": self.max_steps * math.log(max(1.0, abs(self.anti_return)))}
        if sum(logs.values()) >= math.log(np.finfo(float).max):
            name = max(logs, key=logs.get)
            raise ValueError(f"{name} = {getattr(self, name)} overflows the plan fields: "
                             f"max_steps * sum|p_*| * max(1, unknown_avoidance) * "
                             f"max(1, |anti_return|)**max_steps must be finite")

    @property
    def preferences(self) -> dict:
        return {"target": self.p_target, "self": self.p_self,
                "grass": self.p_grass, "dirt": self.p_dirt}


PRESETS = {
    "project-a": LavaConfig(),
    "compare-a": LavaConfig(p_target=10.0),
    "lava-a": LavaConfig(lava_frac=0.1, p_target=10.0, unknown_avoidance=2.0),
    "lava-noav-a": LavaConfig(lava_frac=0.1, p_target=10.0, unknown_avoidance=0.0),
}


@dataclass
class TileMap:
    """One episode's map: terrain characters, spawn, derived RGB image."""

    tiles: list[str]  # rows of {g, d, l, y}; exactly one y
    spawn: tuple

    @property
    def height(self) -> int:
        return len(self.tiles)

    @property
    def width(self) -> int:
        return len(self.tiles[0])

    @property
    def target(self) -> tuple:
        for r, row in enumerate(self.tiles):
            c = row.find("y")
            if c >= 0:
                return (r, c)
        raise ValueError("map has no target tile")

    def rgb(self) -> np.ndarray:
        return PALETTE_RGB[palette_indices([self])[0]]

    def terrain_at(self, pos: tuple) -> str:
        return CHAR_TILES[self.tiles[pos[0]][pos[1]]]


_CHAR_CODES = np.full(256, -1, dtype=np.int8)  # PALETTE row of each tile character's byte
_CHAR_CODES[[ord(ch) for ch in CHAR_INDEX]] = list(CHAR_INDEX.values())


def palette_indices(maps: list[TileMap]) -> np.ndarray:
    """Row of PALETTE_RGB shown by each tile of B same-shape maps, as (B, H, W)."""
    b, h, w = len(maps), maps[0].height, maps[0].width
    codes = np.frombuffer("".join(["".join(m.tiles) for m in maps]).encode("ascii", "replace"),
                          dtype=np.uint8)
    # equal cell counts are not enough: a 1x4 map would be read as 2x2, and
    # rows of widths 2, 1 and 3 as 3x2
    if codes.size != b * h * w or any(m.height != h or any(len(row) != w for row in m.tiles)
                                      for m in maps):
        raise ValueError(f"maps to stack must all be {h}x{w}")
    tiles = _CHAR_CODES[codes].reshape(b, h, w)
    if tiles.min() < 0:
        raise ValueError(f"unknown tile characters; expected {sorted(CHAR_INDEX)}")
    return tiles


# Terrain draws per map before generation gives up: a draw with fewer than two
# walkable tiles is redrawn, which at 10% lava on 12x12 essentially never
# happens, and at lava_frac near 1 nearly always does.
MAP_TRIES = 1000


def generate_map(rng: np.random.Generator, config: LavaConfig) -> TileMap:
    h, w = config.height, config.width
    for _ in range(MAP_TRIES):
        u = rng.random((h, w))
        codes = np.full((h, w), ord("d"), dtype=np.uint8)
        codes[u < config.lava_frac + config.grass_frac] = ord("g")
        codes[u < config.lava_frac] = ord("l")
        walkable = np.flatnonzero(codes != ord("l"))
        if len(walkable) < 2:
            continue
        pick = rng.choice(len(walkable), size=2, replace=False)
        cell, target = walkable[pick]
        codes.flat[target] = ord("y")
        text = codes.tobytes().decode("ascii")
        rows = [text[r * w:(r + 1) * w] for r in range(h)]
        return TileMap(tiles=rows, spawn=divmod(int(cell), w))
    raise ValueError(f"lava_frac {config.lava_frac} left fewer than 2 walkable tiles "
                     f"on a {h}x{w} map in {MAP_TRIES} draws; lower lava_frac")


@dataclass
class MapBank:
    preset: str
    seed: int
    maps: list[TileMap]


def generate_maps(count: int, preset: str, seed: int) -> MapBank:
    """Deterministic bank of maps for one preset: map i from its own stream,
    ``SeedSequence(seed, spawn_key=(i,))``."""
    # imported on use, here and in lavaland: importing the package, which every
    # command's process does first, then need not compile it
    from . import streams

    if count < 1:
        raise ValueError("count must be >= 1")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    config = PRESETS[preset]
    maps = [generate_map(rng, config) for rng in streams.rngs([(seed, ())], range(count))]
    return MapBank(preset=preset, seed=seed, maps=maps)


def save_bank(path, bank: MapBank) -> None:
    doc = {
        "format_version": 1,
        "preset": bank.preset,
        "seed": bank.seed,
        "maps": [{"tiles": m.tiles, "spawn": list(m.spawn)} for m in bank.maps],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def load_bank(path) -> MapBank:
    """Read a bank written by ``save_bank``, refusing what the planner cannot use.

    A ValueError names the file and, for a bad map, the map's index.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: malformed bank file: {err}") from err
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != 1:  # json's true and 1.0 equal 1
        raise ValueError(f"{path}: unsupported bank version {version!r}")
    for key in ("preset", "seed", "maps"):
        if key not in doc:
            raise ValueError(f"{path}: bank has no {key!r} entry")
    if not isinstance(doc["preset"], str) or doc["preset"] not in PRESETS:
        raise ValueError(f"{path}: unknown preset {doc['preset']!r}; "
                         f"choose from {sorted(PRESETS)}")
    if type(doc["seed"]) is not int or not isinstance(doc["maps"], list):
        raise ValueError(f"{path}: 'seed' must be an integer and 'maps' a list")
    if not doc["maps"]:
        raise ValueError(f"{path}: bank has no maps")
    maps = [_checked_map(m, f"{path}: map {i}") for i, m in enumerate(doc["maps"])]
    return MapBank(preset=doc["preset"], seed=doc["seed"], maps=maps)


def _checked_map(entry, where: str) -> TileMap:
    """A TileMap from a bank entry: rectangular rows of known tile characters,
    exactly one target, and a [row, col] spawn inside the map, off lava and
    off the target."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: not an object with 'tiles' and 'spawn'")
    tiles, spawn = entry.get("tiles"), entry.get("spawn")
    if not (isinstance(tiles, list) and tiles
            and all(isinstance(row, str) and row for row in tiles)):
        raise ValueError(f"{where}: 'tiles' must be a non-empty list of non-empty strings")
    if len({len(row) for row in tiles}) != 1:
        raise ValueError(f"{where}: rows are not all the same length")
    flat = "".join(tiles)
    unknown = sorted(set(flat) - set(CHAR_INDEX))
    if unknown:
        raise ValueError(f"{where}: unknown tile characters {unknown}; "
                         f"expected {sorted(CHAR_INDEX)}")
    if flat.count(TILE_CHARS["target"]) != 1:
        raise ValueError(f"{where}: {flat.count(TILE_CHARS['target'])} target tiles, "
                         f"expected exactly one")
    if not (isinstance(spawn, list) and len(spawn) == 2
            and all(type(v) is int for v in spawn)):
        raise ValueError(f"{where}: spawn {spawn!r} is not a [row, col] pair of integers")
    tile_map = TileMap(tiles=tiles, spawn=tuple(spawn))
    r, c = spawn
    if not (0 <= r < tile_map.height and 0 <= c < tile_map.width):
        raise ValueError(f"{where}: spawn {spawn} lies outside the "
                         f"{tile_map.height}x{tile_map.width} map")
    if tile_map.terrain_at(tile_map.spawn) in ("lava", "target"):
        raise ValueError(f"{where}: spawn {spawn} is on "
                         f"{tile_map.terrain_at(tile_map.spawn)}")
    return tile_map
