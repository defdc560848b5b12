"""Columnar event logs: packed NumPy arrays instead of per-event dicts.

A 125 k-cycle instrumented run emits ~7 k events; JSONL spends ~100 bytes
of object syntax per event.  At campaign scale (thousands of runs through
``run_many``) that is the dominant telemetry cost, so this module packs an
event stream into a handful of typed arrays inside one compressed ``.npz``
archive:

* global, emission-ordered columns ``cycle`` (i8), ``type`` (u1 code),
  ``thread``/``block`` (i4), ``value`` (f8) and a ``flags`` (u1) presence
  bitfield — one zip entry per column rather than one per event-type/field
  pair, so small logs don't drown in archive overhead;
* per-type ``data`` payloads.  When every ``data`` dict of a type shares
  one key tuple (in original order) with uniform scalar value kinds, the
  payload becomes real columns (``data.<type>.<i>``); otherwise it falls
  back to a compressed JSON-lines blob for that type.  Events that cannot
  be packed exactly (non-float ``value``, out-of-range ints) go to an
  ``overflow`` JSON blob, so **every** stream round-trips exactly;
* a ``meta`` JSON blob recording counts, ring statistics (emitted/dropped/
  capacity) and the capture config — columnar logs can therefore narrate
  ring drops, which bare JSONL cannot.

The format is lossless: ``load_columnar(write_columnar(events))`` rebuilds
the identical ``Event`` objects (plain Python scalars, original dict key
order), so re-serializing to JSONL is byte-identical to the original log.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from ..errors import SimulationError
from .events import RETIRED_TYPES, Event, EventType

FORMAT = "repro-columnar"
VERSION = 1

#: ``flags`` column bits: which optional fields are present on the event.
FLAG_THREAD = 1
FLAG_BLOCK = 2
FLAG_VALUE = 4
FLAG_DATA = 8
#: ``value`` was an int (stored exactly in the f8 column, restored as int).
FLAG_VALUE_INT = 16
#: event could not be packed; stored verbatim in the ``overflow`` JSON blob.
FLAG_OVERFLOW = 32

_I4_MIN, _I4_MAX = -(2**31), 2**31 - 1
#: largest integer exactly representable in a float64 column
_EXACT_INT = 2**53

_KINDS = {bool: "bool", int: "int", float: "float", str: "str"}
_KIND_DTYPES = {"bool": np.bool_, "int": np.int64, "float": np.float64}
_KIND_CASTS = {"bool": bool, "int": int, "float": float, "str": str}


def _value_kind(value) -> str | None:
    """The packable scalar kind of a data value, or None if unpackable."""
    kind = _KINDS.get(type(value))
    if kind == "int" and abs(value) > _EXACT_INT:
        return None
    return kind


def _fits_columns(event: Event) -> bool:
    """Can this event live in the packed columns (vs the overflow blob)?"""
    if type(event.cycle) is not int or abs(event.cycle) > _EXACT_INT:
        return False
    for field in (event.thread, event.block):
        if field is not None and (
            type(field) is not int or not _I4_MIN <= field <= _I4_MAX
        ):
            return False
    value = event.value
    if value is not None:
        if type(value) is int:
            if abs(value) > _EXACT_INT:
                return False
        elif type(value) is not float:
            return False
    return True


def _sniff_data_schema(payloads: list[dict]) -> tuple[list[str], list[str]] | None:
    """Shared (keys, kinds) of a type's data dicts, or None → JSON fallback.

    Key order is the dicts' own insertion order and must be identical
    across payloads — the round trip re-serializes dicts in stored key
    order, so order is part of the contract, not a nicety.
    """
    if not payloads:
        return None
    keys = list(payloads[0].keys())
    if not keys:
        return None
    kinds: list[str | None] = [None] * len(keys)
    for payload in payloads:
        if list(payload.keys()) != keys:
            return None
        for i, key in enumerate(keys):
            kind = _value_kind(payload[key])
            if kind is None or (kinds[i] is not None and kinds[i] != kind):
                return None
            kinds[i] = kind
    return keys, kinds  # type: ignore[return-value]


def _json_blob(documents: list[str]) -> np.ndarray:
    return np.frombuffer("\n".join(documents).encode("utf-8"), dtype=np.uint8)


def _blob_lines(blob: np.ndarray) -> list[str]:
    text = blob.tobytes().decode("utf-8")
    return text.split("\n") if text else []


def write_columnar(
    events: Iterable[Event],
    path: str | Path,
    *,
    ring: dict | None = None,
    capture: dict | None = None,
) -> int:
    """Pack an event stream into a compressed ``.npz`` archive.

    ``ring`` carries the bus accounting (``emitted``/``dropped``/
    ``capacity``/``suppressed``) into the log's metadata; ``capture`` the
    JSON-able capture config.  Returns the number of events written.
    """
    ordered = list(events)
    count = len(ordered)

    cycle = np.zeros(count, dtype=np.int64)
    type_code = np.zeros(count, dtype=np.uint8)
    thread = np.zeros(count, dtype=np.int32)
    block = np.zeros(count, dtype=np.int32)
    value = np.zeros(count, dtype=np.float64)
    flags = np.zeros(count, dtype=np.uint8)

    types = [t.value for t in EventType]
    codes = {t: i for i, t in enumerate(EventType)}
    by_type_data: dict[EventType, list[dict]] = {}
    overflow: list[str] = []

    for i, event in enumerate(ordered):
        type_code[i] = codes[event.type]
        if not _fits_columns(event):
            flags[i] = FLAG_OVERFLOW
            overflow.append(
                json.dumps(event.to_dict(), separators=(",", ":"))
            )
            continue
        bits = 0
        cycle[i] = event.cycle
        if event.thread is not None:
            bits |= FLAG_THREAD
            thread[i] = event.thread
        if event.block is not None:
            bits |= FLAG_BLOCK
            block[i] = event.block
        if event.value is not None:
            bits |= FLAG_VALUE
            value[i] = event.value
            if type(event.value) is int:
                bits |= FLAG_VALUE_INT
        if event.data is not None:
            bits |= FLAG_DATA
            by_type_data.setdefault(event.type, []).append(event.data)
        flags[i] = bits

    arrays: dict[str, np.ndarray] = {
        "cycle": cycle,
        "type": type_code,
        "thread": thread,
        "block": block,
        "value": value,
        "flags": flags,
    }
    if overflow:
        arrays["overflow"] = _json_blob(overflow)

    data_schemas: dict[str, dict] = {}
    for event_type, payloads in by_type_data.items():
        name = event_type.value
        schema = _sniff_data_schema(payloads)
        if schema is None:
            data_schemas[name] = {"mode": "json"}
            arrays[f"data.{name}"] = _json_blob(
                [json.dumps(p, separators=(",", ":")) for p in payloads]
            )
            continue
        keys, kinds = schema
        data_schemas[name] = {"mode": "columns", "keys": keys, "kinds": kinds}
        for i, (key, kind) in enumerate(zip(keys, kinds, strict=True)):
            column = [payload[key] for payload in payloads]
            dtype = _KIND_DTYPES.get(kind)  # str → let numpy pick '<U*'
            arrays[f"data.{name}.{i}"] = (
                np.array(column, dtype=dtype)
                if dtype is not None
                else np.array(column)
            )

    meta = {
        "format": FORMAT,
        "version": VERSION,
        "count": count,
        "types": types,
        "data": data_schemas,
    }
    if ring is not None:
        meta["ring"] = ring
    if capture is not None:
        meta["capture"] = capture
    arrays["meta"] = _json_blob([json.dumps(meta, separators=(",", ":"))])

    try:
        with Path(path).open("wb") as handle:
            np.savez_compressed(handle, **arrays)
    except OSError as error:
        raise SimulationError(f"cannot write event log: {error}") from error
    return count


def _open(path: str | Path):
    try:
        archive = np.load(Path(path), allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise SimulationError(
            f"cannot read columnar event log {path}: {error}"
        ) from error
    if "meta" not in archive.files:
        raise SimulationError(f"{path}: not a {FORMAT} archive (no meta)")
    try:
        meta = json.loads(_blob_lines(archive["meta"])[0])
    except (IndexError, ValueError) as error:
        raise SimulationError(f"{path}: bad columnar meta ({error})") from error
    if meta.get("format") != FORMAT:
        raise SimulationError(f"{path}: not a {FORMAT} archive")
    if meta.get("version") != VERSION:
        raise SimulationError(
            f"{path}: columnar version {meta.get('version')} "
            f"(this build reads version {VERSION})"
        )
    return archive, meta


def columnar_meta(path: str | Path) -> dict:
    """The archive's metadata (counts, ring stats, capture config)."""
    archive, meta = _open(path)
    archive.close()
    return meta


def read_columnar(
    path: str | Path, retired: dict[str, int] | None = None
) -> Iterator[Event]:
    """Yield the archive's events in original emission order.

    The packed columns are held in memory (they are small); the ``Event``
    objects themselves are built lazily, so streaming reducers never hold
    the whole object stream.  Events of a retired type (an older build's
    type table lists them) are skipped as :func:`read_events` skips them,
    counted in ``retired`` if given.
    """
    archive, meta = _open(path)
    try:
        cycle = archive["cycle"]
        type_code = archive["type"]
        thread = archive["thread"]
        block = archive["block"]
        value = archive["value"]
        flags = archive["flags"]
        overflow = (
            _blob_lines(archive["overflow"])
            if "overflow" in archive.files
            else []
        )
        data_columns: dict[str, tuple] = {}
        data_json: dict[str, list[str]] = {}
        for name, schema in meta.get("data", {}).items():
            if schema["mode"] == "columns":
                keys = schema["keys"]
                casts = [_KIND_CASTS[k] for k in schema["kinds"]]
                columns = [
                    archive[f"data.{name}.{i}"] for i in range(len(keys))
                ]
                data_columns[name] = (keys, casts, columns)
            else:
                data_json[name] = _blob_lines(archive[f"data.{name}"])
    finally:
        archive.close()

    try:
        types = [
            None if name in RETIRED_TYPES else EventType(name)
            for name in meta["types"]
        ]
    except (KeyError, ValueError) as error:
        raise SimulationError(f"{path}: unknown event type ({error})") from error

    overflow_cursor = 0
    data_cursor: dict[str, int] = {}
    for i in range(int(meta["count"])):
        bits = int(flags[i])
        event_type = types[int(type_code[i])]
        if event_type is None:
            name = meta["types"][int(type_code[i])]
            if retired is not None:
                retired[name] = retired.get(name, 0) + 1
            overflow_cursor += bool(bits & FLAG_OVERFLOW)
            continue
        if bits & FLAG_OVERFLOW:
            yield Event.from_dict(json.loads(overflow[overflow_cursor]))
            overflow_cursor += 1
            continue
        data = None
        if bits & FLAG_DATA:
            name = event_type.value
            j = data_cursor.get(name, 0)
            data_cursor[name] = j + 1
            if name in data_columns:
                keys, casts, columns = data_columns[name]
                data = {
                    key: cast(column[j])
                    for key, cast, column in zip(
                        keys, casts, columns, strict=True
                    )
                }
            else:
                data = json.loads(data_json[name][j])
        raw = value[i]
        yield Event(
            cycle=int(cycle[i]),
            type=event_type,
            thread=int(thread[i]) if bits & FLAG_THREAD else None,
            block=int(block[i]) if bits & FLAG_BLOCK else None,
            value=(
                (int(raw) if bits & FLAG_VALUE_INT else float(raw))
                if bits & FLAG_VALUE
                else None
            ),
            data=data,
        )


def load_columnar(path: str | Path) -> list[Event]:
    """Read a whole columnar event log into memory."""
    return list(read_columnar(path))


class ColumnarSink:
    """Buffers emitted events and packs them to ``.npz`` on ``close()``.

    Unlike :class:`~repro.telemetry.bus.JsonlSink` this sink cannot stream
    incrementally — columnar packing needs the whole stream to sniff data
    schemas — so it holds the events (small frozen records) until close.
    The session feeds ``ring`` statistics just before closing so the
    archive's metadata can narrate drops.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        # Fail at attach time like JsonlSink, not at the first event.
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("wb"):
                pass
        except OSError as error:
            raise SimulationError(f"cannot open event log: {error}") from error
        self._events: list[Event] = []
        self.written = 0
        self.ring: dict | None = None
        self.capture: dict | None = None
        self._closed = False

    def __call__(self, event: Event) -> None:
        self._events.append(event)
        self.written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        write_columnar(
            self._events, self.path, ring=self.ring, capture=self.capture
        )
        self._events = []
