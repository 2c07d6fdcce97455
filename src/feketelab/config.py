"""Experiment configuration: flat key=value sections, diff-friendly."""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .errors import ConfigError
from .fekete import Circle, CircleArc, Interval, Sphere, SphericalCap


def parse_domain(text: str):
    text = text.strip().lower()
    if text == "interval":
        return Interval()
    if text == "circle":
        return Circle()
    if text == "sphere":
        return Sphere()
    kind, _, args = text.partition(":")
    if kind in ("arc", "cap"):
        try:
            vals = [float(x) for x in args.split(",")]
        except ValueError:
            vals = []
        if kind == "arc" and len(vals) == 2:
            return CircleArc(*vals)
        if kind == "cap" and len(vals) == 4:
            return SphericalCap(tuple(vals[:3]), vals[3])
        raise ConfigError("arc needs two angles, cap an axis x,y,z and an angle")
    raise ConfigError(f"unknown domain {text!r}")


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a batch run needs; hashable into the output headers."""

    name: str = "experiment"
    domain_text: str = "circle"
    k_min: int = 2
    k_max: int = 10
    mesh: int = 0  # 0 = domain default
    sweeps: int = 3
    weight: str = "zero"
    gammas: tuple = (1.0,)
    disc_n: int = 1
    grid_m: int = 1024
    t_list: tuple = (0.05,)
    samples: int = 20
    h_spec: str = "quad:0.5"
    out_dir: str = "out"
    seed: int = 0
    raw_text: str = field(default="", repr=False)

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ConfigError("k range must be nonempty and increasing")
        if min(self.k_min, self.mesh, self.sweeps) < 0 or self.samples < max(1, len(self.t_list)):
            raise ConfigError("k_min, mesh and sweeps must be nonnegative, samples at least 1 per t value")
        for t in self.t_list:
            if not 0.0 < t <= 1.0:
                raise ConfigError("t values must lie in (0, 1]")
        parse_domain(self.domain_text)  # resolvable now, not at run time
        self.manifold()  # same for the h spec

    @property
    def domain(self):
        return parse_domain(self.domain_text)

    @property
    def ks(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def manifold(self):
        from .bishop import manifold_from_key

        return manifold_from_key(self.manifold_key())

    def manifold_key(self) -> tuple:
        """The h spec `zero | quad:q | mix:q` as ("zero", n) or (kind, n, q)."""
        text = self.h_spec.strip().lower()
        if text == "zero":
            return ("zero", self.disc_n)
        kind, _, q = text.partition(":")
        if kind not in ("quad", "mix"):
            raise ConfigError(f"unknown h spec {text!r}")
        try:
            return (kind, self.disc_n, float(q))
        except ValueError as exc:
            raise ConfigError(f"bad h spec {text!r}") from exc

    def config_hash(self) -> str:
        basis = self.raw_text or repr(self)
        payload = f"{basis}|seed={self.seed}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parser.read_string(text)

    def get(section, key, default):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    try:
        cfg = ExperimentConfig(
            name=get("experiment", "name", "experiment"),
            domain_text=get("fekete", "domain", "circle"),
            k_min=int(get("fekete", "k_min", 2)),
            k_max=int(get("fekete", "k_max", 10)),
            mesh=int(get("fekete", "mesh", 0)),
            sweeps=int(get("fekete", "sweeps", 3)),
            weight=get("fekete", "weight", "zero"),
            gammas=_floats(get("fekete", "gammas", "1.0")),
            disc_n=int(get("disc", "n", get("bishop", "n", 1))),
            grid_m=int(get("disc", "grid_m", get("bishop", "grid_m", 1024))),
            t_list=_floats(get("disc", "t_list", get("bishop", "t_list", "0.05"))),
            samples=int(get("disc", "samples", get("bishop", "samples", 20))),
            h_spec=get("bishop", "h", "quad:0.5"),
            out_dir=get("output", "dir", "out"),
            seed=int(get("rng", "seed", 0)),
            raw_text=text,
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc
    return cfg
