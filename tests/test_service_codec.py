"""Tests for the lossless JSON codec of service payloads."""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.cpa import CPAResult
from repro.attacks.full_key import FullKeyResult
from repro.experiments.runner import FigureRecord
from repro.service.codec import (
    CodecError,
    decode,
    decode_array,
    encode,
    encode_array,
    framed_length,
    from_payload,
    pack_message,
    read_message,
    to_payload,
    unpack_message,
)


def _split_packed(packed: bytes):
    """A packed message back into (header dict, frame blob)."""
    line, _, blob = packed.partition(b"\n")
    return json.loads(line), blob


class TestArrayRoundTrip:
    @pytest.mark.parametrize(
        "array",
        [
            np.linspace(0.0, 1.0, 101),  # float64 with awkward decimals
            np.arange(24, dtype=np.int64).reshape(2, 3, 4),
            np.array([], dtype=np.float64),
            np.random.default_rng(1).normal(size=(7, 5)),
            np.array([[True, False], [False, True]]),
            np.arange(6, dtype=np.uint8).reshape(3, 2),
        ],
    )
    def test_bit_exact_through_json(self, array):
        wire = json.loads(json.dumps(encode_array(array)))
        back = decode_array(wire)
        assert back.dtype == array.dtype.newbyteorder("<")
        assert back.shape == array.shape
        assert np.array_equal(back, array)

    def test_float64_precision_is_exact_not_approximate(self):
        # The value JSON decimal text famously mangles.
        array = np.array([0.1 + 0.2, 1e-300, np.pi])
        back = decode_array(json.loads(json.dumps(encode_array(array))))
        assert back.tobytes() == array.tobytes()

    def test_non_contiguous_input(self):
        array = np.arange(20).reshape(4, 5)[:, ::2]
        assert np.array_equal(decode_array(encode_array(array)), array)

    def test_corrupt_payload_raises_codec_error(self):
        with pytest.raises(CodecError):
            decode_array({"__ndarray__": "!!!", "dtype": "<f8", "shape": [1]})


class TestRecursiveEncode:
    def test_nested_structures(self):
        value = {
            "a": np.arange(3),
            "b": [np.float64(1.5), {"c": b"\x00\xff"}],
            "d": None,
            "e": "text",
        }
        back = decode(json.loads(json.dumps(encode(value))))
        assert np.array_equal(back["a"], np.arange(3))
        assert back["b"][0] == 1.5
        assert back["b"][1]["c"] == b"\x00\xff"
        assert back["d"] is None and back["e"] == "text"

    def test_unencodable_object_rejected(self):
        with pytest.raises(CodecError):
            encode(object())


class TestResultPayloads:
    def _cpa(self, seed: int) -> CPAResult:
        rng = np.random.default_rng(seed)
        return CPAResult(
            checkpoints=np.array([100, 200, 300]),
            correlations=rng.normal(size=(3, 256)),
            correct_key=0x2B,
        )

    def test_cpa_round_trip(self):
        result = self._cpa(1)
        back = from_payload(json.loads(json.dumps(to_payload("attack", result))))
        assert isinstance(back, CPAResult)
        assert np.array_equal(back.checkpoints, result.checkpoints)
        assert np.array_equal(back.correlations, result.correlations)
        assert back.correct_key == result.correct_key
        assert back.best_guess == result.best_guess

    def test_fullkey_round_trip(self):
        result = FullKeyResult(
            byte_results=[self._cpa(i) for i in range(16)],
            true_last_round_key=bytes(range(16)),
        )
        back = from_payload(
            json.loads(json.dumps(to_payload("fullkey", result)))
        )
        assert isinstance(back, FullKeyResult)
        assert back.true_last_round_key == bytes(range(16))
        assert len(back.byte_results) == 16
        for mine, theirs in zip(back.byte_results, result.byte_results):
            assert np.array_equal(mine.correlations, theirs.correlations)
        assert back.num_correct_bytes == result.num_correct_bytes

    def test_tracegen_round_trip(self):
        rng = np.random.default_rng(3)
        data = {
            "ciphertexts": rng.integers(
                0, 256, size=(10, 16), dtype=np.uint8
            ),
            "voltages": rng.normal(1.0, 0.01, size=(10, 40)),
        }
        back = from_payload(
            json.loads(json.dumps(to_payload("tracegen", data)))
        )
        assert np.array_equal(back["ciphertexts"], data["ciphertexts"])
        assert np.array_equal(back["voltages"], data["voltages"])

    def test_report_round_trip(self):
        records = [
            FigureRecord("fig07", "32 bits", "31 bits", True),
            FigureRecord("fig12", "150k", "shy", False),
        ]
        back = from_payload(
            json.loads(json.dumps(to_payload("report", records)))
        )
        assert back == records

    def test_unknown_kind_rejected_both_ways(self):
        with pytest.raises(CodecError):
            to_payload("dance", {})
        with pytest.raises(CodecError):
            from_payload({"type": "dance"})


class TestBinaryFrames:
    def _message(self, seed: int = 1) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "type": "result",
            "lease_id": "lease-000001",
            "result": [
                [
                    100,
                    {
                        "sum_x": rng.normal(size=256),
                        "count": np.int64(100),
                        "mask": rng.integers(0, 2, size=64).astype(
                            np.int8
                        ),
                    },
                ],
                [200, {"blob": b"\x00\xff" * 40, "note": "text"}],
            ],
        }

    def test_round_trip_is_exact(self):
        message = self._message()
        header, blob = _split_packed(pack_message(message))
        assert framed_length(header) == len(blob)
        back = unpack_message(header, blob)
        assert back["type"] == "result"
        boundary, state = back["result"][0]
        assert boundary == 100
        original = self._message()["result"][0][1]
        assert state["sum_x"].dtype == np.dtype("<f8")
        assert np.array_equal(state["sum_x"], original["sum_x"])
        assert state["sum_x"].tobytes() == original["sum_x"].tobytes()
        assert np.array_equal(state["mask"], original["mask"])
        assert state["count"] == 100
        assert back["result"][1][1]["blob"] == b"\x00\xff" * 40

    def test_compression_only_when_it_shrinks(self):
        compressible = {"a": np.zeros(4096)}
        header, _blob = _split_packed(pack_message(compressible))
        frame = header["frames"][0]
        assert frame["z"] == 1
        assert frame["zn"] < frame["n"]

        incompressible = {
            "a": np.random.default_rng(2).integers(
                0, 256, size=4096, dtype=np.uint8
            )
        }
        header, _blob = _split_packed(pack_message(incompressible))
        assert header["frames"][0]["z"] == 0

    def test_compress_false_is_honored(self):
        header, _blob = _split_packed(
            pack_message({"a": np.zeros(4096)}, compress=False)
        )
        frame = header["frames"][0]
        assert frame["z"] == 0 and frame["zn"] == frame["n"]

    def test_binary_is_smaller_than_base64_json(self):
        message = self._message()
        binary = len(pack_message(message, compress=False))
        base64_json = len(
            json.dumps(encode(message), sort_keys=True).encode()
        )
        assert binary < base64_json

    def test_truncated_blob_raises(self):
        header, blob = _split_packed(pack_message(self._message()))
        with pytest.raises(CodecError):
            unpack_message(header, blob[:-1])

    def test_trailing_bytes_raise(self):
        header, blob = _split_packed(pack_message(self._message()))
        with pytest.raises(CodecError):
            unpack_message(header, blob + b"\x00")

    def test_corrupt_header_raises(self):
        with pytest.raises(CodecError):
            unpack_message({"frames": "nope"}, b"")

    def test_stream_read_round_trip_and_clean_eof(self):
        message = self._message(3)

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(pack_message(message))
            reader.feed_data(pack_message({"type": "heartbeat"}))
            reader.feed_eof()
            first = await read_message(reader)
            second = await read_message(reader)
            third = await read_message(reader)
            return first, second, third

        first, second, third = asyncio.run(run())
        assert np.array_equal(
            first["result"][0][1]["sum_x"],
            message["result"][0][1]["sum_x"],
        )
        assert second == {"type": "heartbeat"}
        assert third is None, "clean EOF reads as None"

    def test_torn_mid_message_is_a_codec_error(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(pack_message(self._message())[:-10])
            reader.feed_eof()
            await read_message(reader)

        with pytest.raises(CodecError):
            asyncio.run(run())


@st.composite
def _wire_messages(draw):
    """A fleet-style message: arrays of several dtypes plus raw bytes."""
    dtype = draw(st.sampled_from(["<i8", "<f8", "<i4", "|u1", "|b1"]))
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    count = int(np.prod(shape))
    message = {
        "type": "result",
        "lease_id": draw(st.integers(0, 10**6)),
        "result": [
            [draw(st.integers(0, 10**5)),
             {"sum_x": np.arange(count).astype(dtype).reshape(shape)}],
        ],
        "blob": draw(st.binary(max_size=16)),
    }
    if draw(st.booleans()):
        # A frame large and regular enough to be stored compressed.
        message["zeros"] = np.zeros(600, dtype=np.uint8)
    return message


class TestWireFuzz:
    """A corrupted or torn frame is a CodecError, never anything else:
    the coordinator and a reconnecting worker catch only CodecError."""

    @pytest.mark.parametrize(
        "line",
        [
            b'{"body":null,"frames":[{"n":0,"z":0,"zn":-5}]}',
            b'{"body":null,"frames":[{"n":0,"z":0,"zn":1e999}]}',
            b'{"body":{"__frame__":1e999},"frames":[]}',
        ],
        ids=["negative-length", "infinite-length", "infinite-reference"],
    )
    def test_out_of_range_numbers_are_codec_errors(self, line):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(line + b"\n")
            reader.feed_eof()
            await read_message(reader)

        with pytest.raises(CodecError):
            asyncio.run(run())

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(
        message=_wire_messages(),
        values=st.lists(st.integers(0, 255), min_size=1, max_size=3),
    )
    def test_every_byte_change_and_truncation(self, message, values):
        packed = pack_message(message)
        corrupted = [packed[:end] for end in range(len(packed))]
        for index, byte in enumerate(packed):
            replacements = {byte ^ 0x01, byte ^ 0x80, *values} - {byte}
            corrupted.extend(
                packed[:index] + bytes([value]) + packed[index + 1:]
                for value in sorted(replacements)
            )

        async def run():
            escaped = []
            for data in corrupted:
                reader = asyncio.StreamReader()
                reader.feed_data(data)
                reader.feed_eof()
                try:
                    await read_message(reader)
                except CodecError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the finding
                    escaped.append((data, exc))
            return escaped

        escaped = asyncio.run(run())
        assert not escaped, "%d escaped, first: %r" % (
            len(escaped), escaped[0],
        )
