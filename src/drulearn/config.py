"""Experiment configuration: a flat, typed key=value file format.

Every key has a default, every value is type-checked on parse, and unknown
keys are hard errors so a typo cannot silently fall back to a default and
invalidate a sweep.  `ExperimentConfig` is the one settings record and the
one place each key's range is checked; the library reads the checked
values.  The names a key can take (unlabeled modes, prior modes, radius
policies, strategies) are defined here too, so this module imports no other
part of the package and no numpy.  `open_utf8` opens every text input, the
config and the CSV table, so both name the file and line of a byte that is
not UTF-8.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

UNLABELED_FULL = "full"
UNLABELED_REMAINDER = "remainder"

PRIOR_STRONG = "strong"
PRIOR_WEAK = "weak"

MIN_RADIUS_PLUS_DELTA = "min-radius-plus-delta"
AS_ROBUST_AS_POSSIBLE = "as-robust-as-possible"
FRACTION_OF_TRUE_DISTANCE = "fraction-of-true-distance"
RADIUS_POLICIES = (
    MIN_RADIUS_PLUS_DELTA,
    AS_ROBUST_AS_POSSIBLE,
    FRACTION_OF_TRUE_DISTANCE,
)

RANDOM = "random"
EMC = "emc"
MIN_MC = "min_mc"
MAX_MC = "max_mc"
DR_STRONG = "dr_strong"
DR_WEAK = "dr_weak"
STRATEGY_KINDS = (RANDOM, EMC, MIN_MC, MAX_MC, DR_STRONG, DR_WEAK)


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or validated."""


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one command-line run."""

    # Data source; an empty dataset path selects the bundled synthetic
    # two-cluster generator.
    dataset: str = ""
    label_column: str = "label"
    positive_label: str = "1"
    standardize: bool = True
    synthetic_n: int = 200
    synthetic_separation: float = 1.5
    synthetic_noise: float = 0.5

    # Sampling.
    seed: int = 0
    n_labeled: int = 20
    unlabeled_mode: str = UNLABELED_FULL
    n_labeled_grid: tuple = ()

    # Geometry and label prior.
    label_flip_cost: float = 1.0
    prior_mode: str = PRIOR_WEAK
    prior_positive_share: float | None = None
    prior_level: float = 0.95
    z_score: float = 1.96

    # Radius policy; an explicit eps bypasses the policy.
    eps: float | None = None
    eps_policy: str = MIN_RADIUS_PLUS_DELTA
    delta_margin: float = 1e-3
    confidence_threshold: float = 0.7
    fraction: float = 1.0
    grid_points: int = 20
    grid_span: float = 10.0

    # Experiment orchestration.
    trials: int = 1
    output: str = "results.csv"
    eps_grid: tuple = (0.1, 0.2, 0.5, 1.0, 2.0)
    delta_grid: tuple = (0.0, 0.05, 0.1, 0.2, 0.5)

    # Label acquisition.
    strategy: str = RANDOM
    n_initial: int = 2
    stop_at: int = 0
    candidate_subsample: int = 100
    ridge_gamma: float = 1e-3
    mc_include_norm: bool = False

    def __post_init__(self):
        # nan passes every comparison below, and inf only fails deep inside
        # a solver; every float key and every grid entry must be finite
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(
                isinstance(entry, float) and not math.isfinite(entry)
                for entry in entries
            ):
                raise ConfigError(
                    f"{field.name} must be finite, got {render_value(value)}"
                )
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.output:
            raise ConfigError("output must name a file")
        if self.prior_mode not in (PRIOR_STRONG, PRIOR_WEAK):
            raise ConfigError(f"unknown prior_mode {self.prior_mode!r}")
        if self.unlabeled_mode not in (UNLABELED_FULL, UNLABELED_REMAINDER):
            raise ConfigError(f"unknown unlabeled_mode {self.unlabeled_mode!r}")
        if self.eps_policy not in RADIUS_POLICIES:
            raise ConfigError(f"unknown eps_policy {self.eps_policy!r}")
        if self.strategy not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.n_labeled < 1 or self.n_initial < 1:
            raise ConfigError("n_labeled and n_initial must be at least 1")
        if self.synthetic_n < 2:
            raise ConfigError("synthetic_n must be at least 2")
        if self.eps is not None and self.eps < 0:
            raise ConfigError("eps must be nonnegative")
        if self.label_flip_cost <= 0:
            raise ConfigError("label_flip_cost must be positive")
        if self.z_score < 0:
            raise ConfigError("z_score must be nonnegative")
        # the keys below would otherwise fail once per trial, or not at all
        for key in ("eps_grid", "delta_grid"):
            if any(entry < 0 for entry in getattr(self, key)):
                raise ConfigError(f"{key} entries must be nonnegative")
        if any(entry < 1 for entry in self.n_labeled_grid):
            raise ConfigError("n_labeled_grid entries must be at least 1")
        # a repeated entry would repeat a run and its `.meta` error key
        for key in ("n_labeled_grid", "eps_grid", "delta_grid"):
            grid = getattr(self, key)
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{key} entries must be distinct")
        if not 0.0 < self.prior_level < 1.0:
            raise ConfigError("prior_level must lie strictly between 0 and 1")
        share = self.prior_positive_share
        if share is not None and not 0.0 <= share <= 1.0:
            raise ConfigError("prior_positive_share must lie in [0, 1]")
        if self.candidate_subsample < 1:
            raise ConfigError("candidate_subsample must be at least 1")
        if self.ridge_gamma < 0:
            raise ConfigError("ridge_gamma must be nonnegative")
        # the radius-policy keys are checked whatever the policy: `min-radius`
        # and `active` read delta_margin but never run a policy
        if self.delta_margin <= 0:
            raise ConfigError("delta_margin must be positive")
        if not 0.0 < self.confidence_threshold < 1.0:
            raise ConfigError("confidence_threshold must lie in (0, 1)")
        if self.fraction < 0:
            raise ConfigError("fraction must be nonnegative")
        if self.grid_points < 1:
            raise ConfigError("grid_points must be positive")
        if self.grid_span <= 0:
            raise ConfigError("grid_span must be positive")
        # the screen's grid runs from base + delta_margin up to base + grid_span
        if (
            self.eps_policy == AS_ROBUST_AS_POSSIBLE
            and self.grid_span <= self.delta_margin
        ):
            raise ConfigError(
                "with eps_policy = as-robust-as-possible, grid_span must exceed "
                "delta_margin"
            )
        if self.stop_at < 0:
            raise ConfigError("stop_at must be nonnegative")
        if 0 < self.stop_at <= self.n_initial:
            raise ConfigError("stop_at must exceed n_initial")


_FIELD_TYPES = {
    field.name: field.type for field in dataclasses.fields(ExperimentConfig)
}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            return _parse_bool(raw, key)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "float | None":
            if raw == "" or raw.lower() == "none":
                return None
            return float(raw)
        if kind == "tuple":
            if raw == "":
                return ()
            parts = [part.strip() for part in raw.split(",")]
            if key == "n_labeled_grid":
                return tuple(int(part) for part in parts)
            return tuple(float(part) for part in parts)
        return raw
    except ValueError as error:
        raise ConfigError(f"{key}: {error}") from error


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines (# comments allowed) into a config."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


@contextlib.contextmanager
def open_utf8(path, error=ConfigError, newline=None):
    """Open `path` as UTF-8 text, dropping a leading byte-order mark; a byte
    sequence that is not UTF-8 raises `error` naming the file and the line."""
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError:
        # the decoder's offset counts from the start of a read chunk, not of
        # the file: find the first line that does not decode
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        number = next(
            number
            for number, line in enumerate(lines, start=1)
            if line.decode("utf-8", "replace").encode("utf-8") != line
        )
        raise error(f"{path}: line {number} is not UTF-8 text") from None


def load_config(path: str) -> ExperimentConfig:
    """Read and parse a config file."""
    with open_utf8(path) as handle:
        return parse_config_text(handle.read())


def render_value(value) -> str:
    """Canonical text form of a config value, inverse of the parser."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(render_value(item) for item in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_items(config: ExperimentConfig):
    """Sorted (key, rendered value) pairs, for the metadata sidecar."""
    return [
        (field.name, render_value(getattr(config, field.name)))
        for field in sorted(dataclasses.fields(ExperimentConfig), key=lambda f: f.name)
    ]
