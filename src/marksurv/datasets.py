"""Bundled data and dataset loaders."""

from __future__ import annotations

from .index import ParameterError
from .inference import DataError, Dataset

__all__ = ["DataError", "GEHAN_6MP", "load_dataset", "parse_dataset_text"]

# Remission times in weeks for the 6-MP arm of the Gehan (1965) leukemia
# trial: 21 patients, 9 observed failures, 12 right-censored.
GEHAN_6MP = Dataset(
    times=(6, 6, 6, 6, 7, 9, 10, 10, 11, 13, 16,
           17, 19, 20, 22, 23, 25, 32, 32, 34, 35),
    failed=(True, True, True, False, True, False, True, False, False, True,
            True, False, False, False, True, True, False, False, False,
            False, False),
    label="gehan-6mp (weeks)",
)

BUILTIN = {"gehan": GEHAN_6MP}


def parse_dataset_text(text: str, label: str = "") -> Dataset:
    """Parse either a two-column CSV with header ``time,status`` (status 1 =
    failure, 0 = censored, anything else a DataError) or a free-form token
    list where a trailing ``*`` marks a censored time (e.g. ``6,6,6,6*,7``)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise DataError("dataset is empty")
    records = []
    if lines[0].replace(" ", "").lower() == "time,status":
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 2:
                raise DataError(f"bad CSV row: {ln!r}")
            try:
                time, status = float(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DataError(f"bad CSV row: {ln!r}") from exc
            if status not in (0, 1):
                raise DataError(f"status must be 0 or 1: {ln!r}")
            records.append((time, status == 1))
    else:
        for ln in lines:
            for tok in ln.replace(",", " ").split():
                try:
                    records.append((float(tok.removesuffix("*")),
                                    not tok.endswith("*")))
                except ValueError as exc:
                    raise DataError(f"bad time token: {tok!r}") from exc
    if not records:
        raise DataError("dataset is empty")
    try:
        return Dataset.from_records(records, label=label)
    except ParameterError as exc:
        raise DataError(str(exc)) from exc


def load_dataset(source: str) -> Dataset:
    """Load ``builtin:<name>`` or a file path."""
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name not in BUILTIN:
            raise DataError(f"unknown builtin dataset {name!r}")
        return BUILTIN[name]
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {source!r}: {exc}") from exc
    return parse_dataset_text(text, label=source)
