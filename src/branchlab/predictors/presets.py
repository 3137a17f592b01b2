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
``weight_bits``; tage ``num_tagged_tables``, ``entries_per_table``,
``min_hist``, ``max_hist``, ``base_entries``; tage-sc-l ``budget``.
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


def _count(text: str, what: str) -> int:
    text = text.strip().lower()
    try:
        if text.endswith("k"):
            return int(text[:-1]) * 1024
        return int(text)
    except ValueError:
        raise ConfigError(f"unparseable {what} {text!r}") from None


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
    if kind == "always-taken":
        return AlwaysTaken()
    if kind == "bimodal":
        return Bimodal(entries=_count(str(spec.get("entries", 4096)), "entries"))
    if kind == "gshare":
        predictor = Gshare(
            entries=_count(str(spec.get("entries", 16384)), "entries"),
            history_length=int(spec["history_length"]) if "history_length" in spec else None,
        )
        return predictor
    if kind == "perceptron":
        return Perceptron(
            history_length=int(spec.get("history_length", 28)),
            rows=_count(str(spec.get("rows", 256)), "rows"),
            weight_bits=int(spec.get("weight_bits", 8)),
        )
    if kind == "tage":
        if "budget" in spec:
            cfg = ensemble_config(resolve_budget(str(spec["budget"]))).tage
        else:
            cfg = TageConfig(
                num_tagged_tables=int(spec.get("num_tagged_tables", 12)),
                entries_per_table=_count(str(spec.get("entries_per_table", 256)), "entries"),
                min_hist=int(spec.get("min_hist", 4)),
                max_hist=int(spec.get("max_hist", 1000)),
                base_entries=_count(str(spec.get("base_entries", 4096)), "entries"),
            )
        return Tage(cfg, seed=seed)
    if kind == "tage-sc-l":
        return TageSCL(ensemble_config(str(spec.get("budget", "8kb"))), seed=seed)
    raise ConfigError(f"unknown predictor {kind!r}")


def load_predictor_config(path: str | Path) -> dict[str, str]:
    """Parse a key-value predictor config file."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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


def estimate_storage(obj) -> int:
    """Modeled table storage in bytes for a config, preset string, config
    mapping, or live predictor."""
    if isinstance(obj, (str, dict)):
        return make_predictor(obj).storage_bytes()
    if hasattr(obj, "storage_bytes"):
        return obj.storage_bytes()
    raise ConfigError(f"cannot estimate storage for {type(obj).__name__}")
