"""Lossless JSON encoding of campaign results for wire and disk.

Service results must be *bit-identical* to direct CLI runs, so the
protocol cannot round numbers through decimal text: float64
correlations survive a JSON float only approximately.  Arrays are
therefore carried as base64 of their raw little-endian bytes plus dtype
and shape — exact, stdlib-only, and self-describing:

``{"__ndarray__": "<base64>", "dtype": "<f8", "shape": [5, 256]}``

:func:`encode` / :func:`decode` walk nested dict/list payloads and
translate every array (or tagged blob) in place; everything else must
already be JSON-native.  On top of that, the ``to_payload`` /
``from_payload`` pair maps the concrete result objects the runners
produce (:class:`~repro.attacks.cpa.CPAResult`,
:class:`~repro.attacks.full_key.FullKeyResult`, trace dicts, figure
records) to tagged payload dicts and back, so the server, the cache,
and the client all speak one format.

**Binary frames** — base64 costs 4/3 of the raw bytes plus a decode
pass, which is fine for one result line but not for a fleet protocol
streaming shard partials all day.  :func:`pack_message` /
:func:`unpack_message` carry the same nested payloads as one JSON
*header line* (arrays replaced by ``{"__frame__": i, ...}`` stubs)
followed by the raw little-endian array bytes, length-prefixed in the
header and optionally zlib-compressed per frame when that actually
shrinks them.  The frame bytes are the exact bytes ``encode_array``
would have base64'd, so the two encodings are interchangeable and both
bit-exact; :func:`read_message` / :func:`write_message` are the asyncio
stream helpers the fleet coordinator and workers share.
"""

from __future__ import annotations

import asyncio
import base64
import json
import zlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attacks.cpa import CPAResult
from repro.attacks.full_key import FullKeyResult
from repro.experiments.runner import FigureRecord
from repro.util.errors import ReproError

__all__ = [
    "CodecError",
    "decode",
    "decode_array",
    "decode_frames",
    "encode",
    "encode_array",
    "encode_frames",
    "framed_length",
    "from_payload",
    "pack_message",
    "payload_text",
    "read_message",
    "to_payload",
    "unpack_message",
    "write_message",
]

_ARRAY_TAG = "__ndarray__"
_BYTES_TAG = "__bytes__"
_FRAME_TAG = "__frame__"

#: Frames shorter than this are stored raw: zlib's header/dictionary
#: overhead dominates tiny payloads, and the CPU spent is pure loss.
COMPRESS_MIN_BYTES = 512


class CodecError(ReproError):
    """A payload cannot be encoded or decoded."""


def encode_array(array: np.ndarray) -> Dict[str, object]:
    """One array as a JSON-safe tagged dict (exact bytes)."""
    array = np.ascontiguousarray(array)
    # A canonical little-endian byte order keeps payloads portable.
    dtype = array.dtype.newbyteorder("<")
    return {
        _ARRAY_TAG: base64.b64encode(
            array.astype(dtype, copy=False).tobytes()
        ).decode("ascii"),
        "dtype": dtype.str,
        "shape": list(array.shape),
    }


def decode_array(data: Dict[str, object]) -> np.ndarray:
    """Inverse of :func:`encode_array`."""
    try:
        raw = base64.b64decode(str(data[_ARRAY_TAG]))
        array = np.frombuffer(raw, dtype=np.dtype(str(data["dtype"])))
        return array.reshape([int(n) for n in data["shape"]]).copy()
    except (KeyError, ValueError, TypeError, SyntaxError) as exc:
        # numpy parses some malformed dtype strings (e.g. "<08") as
        # Python and raises SyntaxError.
        raise CodecError("corrupt array payload (%s)" % exc) from exc


def encode(value: object) -> object:
    """Recursively translate arrays/bytes into tagged JSON values."""
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CodecError(
        "cannot encode %s into a service payload" % type(value).__name__
    )


def decode(value: object) -> object:
    """Inverse of :func:`encode`."""
    if isinstance(value, dict):
        if _ARRAY_TAG in value:
            return decode_array(value)
        if _BYTES_TAG in value:
            return base64.b64decode(str(value[_BYTES_TAG]))
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode(item) for item in value]
    return value


# ----------------------------------------------------------------------
# Binary frames (the fleet wire format)
# ----------------------------------------------------------------------


def encode_frames(value: object) -> Tuple[object, List[bytes]]:
    """Like :func:`encode`, but arrays/bytes become frame references.

    Returns ``(header_value, frames)``: the header is JSON-native with
    every array replaced by ``{"__frame__": i, "dtype": ..., "shape":
    ...}`` (bytes blobs by ``{"__frame__": i}``), and ``frames[i]``
    holds the exact little-endian bytes :func:`encode_array` would have
    base64'd — so framed and base64 payloads decode bit-identically.
    """
    frames: List[bytes] = []

    def walk(item: object) -> object:
        if isinstance(item, np.ndarray):
            array = np.ascontiguousarray(item)
            dtype = array.dtype.newbyteorder("<")
            frames.append(array.astype(dtype, copy=False).tobytes())
            return {
                _FRAME_TAG: len(frames) - 1,
                "dtype": dtype.str,
                "shape": list(array.shape),
            }
        if isinstance(item, (bytes, bytearray)):
            frames.append(bytes(item))
            return {_FRAME_TAG: len(frames) - 1}
        if isinstance(item, np.generic):
            return item.item()
        if isinstance(item, dict):
            return {str(key): walk(entry) for key, entry in item.items()}
        if isinstance(item, (list, tuple)):
            return [walk(entry) for entry in item]
        if item is None or isinstance(item, (bool, int, float, str)):
            return item
        raise CodecError(
            "cannot encode %s into a framed message" % type(item).__name__
        )

    return walk(value), frames


def decode_frames(value: object, frames: Sequence[bytes]) -> object:
    """Inverse of :func:`encode_frames` given the frame bytes."""
    if isinstance(value, dict):
        if _FRAME_TAG in value:
            try:
                raw = frames[int(value[_FRAME_TAG])]  # type: ignore[arg-type]
            except (IndexError, ValueError, TypeError, OverflowError) as exc:
                raise CodecError("corrupt frame reference (%s)" % exc) from exc
            if "dtype" not in value:
                return raw
            try:
                array = np.frombuffer(raw, dtype=np.dtype(str(value["dtype"])))
                return array.reshape(
                    [int(n) for n in value["shape"]]  # type: ignore[union-attr]
                ).copy()
            except (KeyError, ValueError, TypeError, SyntaxError) as exc:
                raise CodecError("corrupt array frame (%s)" % exc) from exc
        return {key: decode_frames(item, frames) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_frames(item, frames) for item in value]
    return value


def pack_message(value: object, compress: bool = True) -> bytes:
    """One payload as ``header JSON line + concatenated frame bytes``.

    The header line carries ``{"body": ..., "frames": [{"n": raw_len,
    "z": 0|1, "zn": stored_len}, ...]}``; the stored bytes of every
    frame follow in order, so a reader needs exactly one ``readline``
    plus one ``readexactly(sum(zn))``.  Compression is per frame and
    only kept when it actually shrinks the bytes, which keeps the
    decode path branch-cheap and never hurts incompressible data.
    """
    body, frames = encode_frames(value)
    stored: List[bytes] = []
    meta: List[Dict[str, int]] = []
    for raw in frames:
        blob = raw
        flag = 0
        if compress and len(raw) >= COMPRESS_MIN_BYTES:
            packed = zlib.compress(raw, 6)
            if len(packed) < len(raw):
                blob = packed
                flag = 1
        stored.append(blob)
        meta.append({"n": len(raw), "z": flag, "zn": len(blob)})
    header = json.dumps(
        {"body": body, "frames": meta}, separators=(",", ":")
    ).encode("utf-8")
    return b"".join([header, b"\n"] + stored)


def framed_length(header: Dict[str, object]) -> int:
    """Total frame bytes that follow a parsed header line."""
    try:
        lengths = [int(frame["zn"]) for frame in header["frames"]]  # type: ignore[index,union-attr]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodecError("corrupt frame header (%s)" % exc) from exc
    if any(length < 0 for length in lengths):
        raise CodecError("corrupt frame header (negative frame length)")
    return sum(lengths)


def unpack_message(header: Dict[str, object], blob: bytes) -> object:
    """Rebuild the payload from a parsed header line and frame bytes.

    ``header`` is the JSON-parsed first line of :func:`pack_message`
    output; ``blob`` is exactly :func:`framed_length` bytes.
    """
    frames: List[bytes] = []
    offset = 0
    try:
        metas = list(header["frames"])  # type: ignore[arg-type]
    except (KeyError, TypeError) as exc:
        raise CodecError("corrupt frame header (%s)" % exc) from exc
    for meta in metas:
        try:
            stored_len = int(meta["zn"])
            raw_len = int(meta["n"])
            flag = int(meta["z"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CodecError("corrupt frame header (%s)" % exc) from exc
        stored = blob[offset : offset + stored_len]
        if len(stored) != stored_len:
            raise CodecError(
                "truncated frame: expected %d bytes, got %d"
                % (stored_len, len(stored))
            )
        offset += stored_len
        if flag:
            try:
                raw = zlib.decompress(stored)
            except zlib.error as exc:
                raise CodecError("corrupt compressed frame (%s)" % exc) from exc
        else:
            raw = stored
        if len(raw) != raw_len:
            raise CodecError(
                "frame length mismatch: expected %d bytes, got %d"
                % (raw_len, len(raw))
            )
        frames.append(raw)
    if offset != len(blob):
        raise CodecError(
            "trailing frame bytes: consumed %d of %d" % (offset, len(blob))
        )
    return decode_frames(header.get("body"), frames)


async def write_message(writer, value: object, compress: bool = True) -> None:
    """Send one framed message on an asyncio stream writer."""
    writer.write(pack_message(value, compress=compress))
    await writer.drain()


async def read_message(reader) -> Optional[object]:
    """Read one framed message; ``None`` on clean EOF.

    A connection that dies mid-message (header without its frames)
    raises :class:`CodecError` rather than returning a torn payload.
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        header = json.loads(line)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CodecError("corrupt frame header line (%s)" % exc) from exc
    if not isinstance(header, dict):
        raise CodecError("frame header must be a JSON object")
    total = framed_length(header)
    try:
        blob = await reader.readexactly(total) if total else b""
    except asyncio.IncompleteReadError as exc:
        raise CodecError(
            "connection closed mid-message (%d of %d frame bytes)"
            % (len(exc.partial), total)
        ) from exc
    return unpack_message(header, blob)


# ----------------------------------------------------------------------
# Result-object mapping
# ----------------------------------------------------------------------


def to_payload(kind: str, result: object) -> Dict[str, object]:
    """Map a runner's result object to a tagged, encodable payload."""
    if kind == "tracegen":
        data: Dict[str, np.ndarray] = result  # type: ignore[assignment]
        return {
            "type": "tracegen",
            "ciphertexts": encode_array(data["ciphertexts"]),
            "voltages": encode_array(data["voltages"]),
        }
    if kind == "attack":
        cpa: CPAResult = result  # type: ignore[assignment]
        return {
            "type": "cpa",
            "checkpoints": encode_array(cpa.checkpoints),
            "correlations": encode_array(cpa.correlations),
            "correct_key": (
                None if cpa.correct_key is None else int(cpa.correct_key)
            ),
        }
    if kind == "fullkey":
        full: FullKeyResult = result  # type: ignore[assignment]
        return {
            "type": "fullkey",
            "bytes": [
                {
                    "checkpoints": encode_array(byte.checkpoints),
                    "correlations": encode_array(byte.correlations),
                    "correct_key": (
                        None
                        if byte.correct_key is None
                        else int(byte.correct_key)
                    ),
                }
                for byte in full.byte_results
            ],
            "true_last_round_key": (
                None
                if full.true_last_round_key is None
                else encode(bytes(full.true_last_round_key))
            ),
        }
    if kind == "report":
        records: List[FigureRecord] = result  # type: ignore[assignment]
        return {
            "type": "report",
            "records": [
                {
                    "figure": record.figure,
                    "paper": record.paper,
                    "measured": record.measured,
                    "ok": record.ok,
                }
                for record in records
            ],
        }
    raise CodecError("no payload mapping for job kind %r" % kind)


def payload_text(kind: str, result: object) -> str:
    """A result's canonical text, sorted-key JSON: the one form the
    service encodes a result to, caches and serves."""
    return json.dumps(to_payload(kind, result), sort_keys=True)


def from_payload(payload: Union[str, Dict[str, object]]) -> object:
    """Rebuild the natural result object from a tagged payload or its
    text (:func:`payload_text`)."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    kind = payload.get("type")
    if kind == "tracegen":
        return {
            "ciphertexts": decode_array(payload["ciphertexts"]),
            "voltages": decode_array(payload["voltages"]),
        }
    if kind == "cpa":
        correct: Optional[int] = payload.get("correct_key")
        return CPAResult(
            checkpoints=decode_array(payload["checkpoints"]),
            correlations=decode_array(payload["correlations"]),
            correct_key=None if correct is None else int(correct),
        )
    if kind == "fullkey":
        true_key = payload.get("true_last_round_key")
        return FullKeyResult(
            byte_results=[
                CPAResult(
                    checkpoints=decode_array(byte["checkpoints"]),
                    correlations=decode_array(byte["correlations"]),
                    correct_key=(
                        None
                        if byte["correct_key"] is None
                        else int(byte["correct_key"])
                    ),
                )
                for byte in payload["bytes"]
            ],
            true_last_round_key=(
                None if true_key is None else bytes(decode(true_key))
            ),
        )
    if kind == "report":
        return [
            FigureRecord(
                figure=str(record["figure"]),
                paper=str(record["paper"]),
                measured=str(record["measured"]),
                ok=bool(record["ok"]),
            )
            for record in payload["records"]
        ]
    raise CodecError("unknown payload type %r" % kind)
