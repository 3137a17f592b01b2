"""Named predictor presets, key-value config files, storage estimation.

Preset strings: ``always-taken``, ``bimodal:4k``, ``gshare:16k``,
``perceptron:28``, ``tage:8kb``, ``tage-sc-l:8kb``, ``tage-sc-l:64kb``.
The part after the colon is entries (bimodal/gshare, k = x1024), history
length (perceptron), or storage budget (tage, tage-sc-l); it may be
omitted to take the default.

Config files are line-oriented ``key = value`` pairs, ``#`` comments::

    predictor = tage-sc-l
    budget = 64kb

Keys per predictor: bimodal ``entries``; gshare ``entries``,
``history_length``; perceptron ``history_length``, ``rows``,
``weight_bits``; tage ``budget``, or ``num_tagged_tables``,
``entries_per_table``, ``min_hist``, ``max_hist``, ``base_entries``;
tage-sc-l ``budget``. Any other key, and any value that is not an integer
where one is read, is a ConfigError.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ConfigError
from .base import ConditionalPredictor
from .ensemble import TageSCL, ensemble_config, resolve_budget
from .perceptron import Perceptron
from .simple import AlwaysTaken, Bimodal, Gshare
from .tage import Tage, TageConfig

PRESET_NAMES = (
    "always-taken",
    "bimodal:4k",
    "gshare:16k",
    "perceptron:28",
    "tage-sc-l:8kb",
    "tage-sc-l:64kb",
)


_CONFIG_KEYS = {
    "always-taken": (),
    "bimodal": ("entries",),
    "gshare": ("entries", "history_length"),
    "perceptron": ("history_length", "rows", "weight_bits"),
    "tage": ("budget", "num_tagged_tables", "entries_per_table", "min_hist", "max_hist",
             "base_entries"),
    "tage-sc-l": ("budget",),
}


def _int(spec: dict, key: str, default, count: bool = False) -> int:
    """The integer at ``key`` (``default`` if absent); a ``count`` may
    carry a ``k`` suffix (x1024)."""
    text = str(spec.get(key, default)).strip().lower()
    try:
        if count and text.endswith("k"):
            return int(text[:-1]) * 1024
        return int(text)
    except ValueError:
        raise ConfigError(f"unparseable {key} {text!r}") from None


def make_predictor(spec: str | dict, seed: int = 0) -> ConditionalPredictor:
    """Build a predictor from a preset string or a config mapping."""
    if isinstance(spec, str):
        name, _, arg = spec.strip().lower().partition(":")
        mapping: dict[str, str] = {"predictor": name}
        if arg:
            if name in ("bimodal", "gshare"):
                mapping["entries"] = arg
            elif name == "perceptron":
                mapping["history_length"] = arg
            elif name in ("tage", "tage-sc-l"):
                mapping["budget"] = arg
            elif name:
                raise ConfigError(f"preset {name!r} takes no argument")
        spec = mapping
    kind = str(spec.get("predictor", "")).strip().lower()
    if kind not in _CONFIG_KEYS:
        raise ConfigError(f"unknown predictor {kind!r}")
    unknown = sorted(set(spec) - {"predictor", *_CONFIG_KEYS[kind]})
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))} for {kind}")
    if kind == "always-taken":
        return AlwaysTaken()
    if kind == "bimodal":
        return Bimodal(entries=_int(spec, "entries", 4096, count=True))
    if kind == "gshare":
        return Gshare(
            entries=_int(spec, "entries", 16384, count=True),
            history_length=_int(spec, "history_length", 0) if "history_length" in spec else None,
        )
    if kind == "perceptron":
        return Perceptron(
            history_length=_int(spec, "history_length", 28),
            rows=_int(spec, "rows", 256, count=True),
            weight_bits=_int(spec, "weight_bits", 8),
        )
    if kind == "tage":
        if "budget" in spec:
            cfg = ensemble_config(resolve_budget(str(spec["budget"]))).tage
        else:
            cfg = TageConfig(
                num_tagged_tables=_int(spec, "num_tagged_tables", 12),
                entries_per_table=_int(spec, "entries_per_table", 256, count=True),
                min_hist=_int(spec, "min_hist", 4),
                max_hist=_int(spec, "max_hist", 1000),
                base_entries=_int(spec, "base_entries", 4096, count=True),
            )
        return Tage(cfg, seed=seed)
    return TageSCL(ensemble_config(resolve_budget(str(spec.get("budget", "8kb")))), seed=seed)


def load_predictor_config(path: str | Path) -> dict[str, str]:
    """Parse a key-value predictor config file."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        mapping[key.strip().lower()] = value.strip()
    if "predictor" not in mapping:
        raise ConfigError(f"{path}: missing required key 'predictor'")
    return mapping


def estimate_storage(spec: str | dict) -> int:
    """Modeled table storage in bytes of the predictor a preset string or
    config mapping names."""
    return make_predictor(spec).storage_bytes()
