#!/usr/bin/env python3
"""Offline inspector for ftpim .ftck training checkpoints.

Mirrors the C++ reader (src/common/checkpoint.cpp) byte for byte: FTCK magic,
u32 format version, framed chunks (4-char tag, u64 length, payload, CRC32C
over tag + payload), FEND end sentinel, no trailing bytes. Corruption is reported with the same
kind labels the C++ CheckpointError uses, so a file this tool rejects is
rejected by the C++ loader for the same reason, and vice versa.

Commands:
  verify <ckpt>     validate framing + checksums; exit 0 iff the file is sound
  dump <ckpt>       verify, then pretty-print header, chunks, and known payloads
  diff <a> <b>      compare two checkpoints chunk by chunk / tensor by tensor

Exit codes: 0 = OK (diff: identical), 1 = corrupt file (diff: differences),
2 = usage error.
"""

import os
import struct
import sys

FORMAT_VERSION = 1
MAGIC = b"FTCK"
SENTINEL = b"FEND"

# ---------------------------------------------------------------------------
# CRC32C (Castagnoli), software table — mirrors src/common/crc32c.cpp.

_POLY = 0x82F63B78


def _make_table():
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        table.append(c)
    return table


_TABLE = _make_table()


def crc32c(data):
    crc = 0xFFFFFFFF
    for b in data:
        crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Container parsing.


class CheckpointError(Exception):
    """kind labels match ftpim::to_string(CheckpointErrorKind)."""

    def __init__(self, kind, chunk, detail):
        self.kind = kind
        self.chunk = chunk
        where = f" chunk '{chunk}'" if chunk else ""
        super().__init__(f"checkpoint [{kind}]{where}: {detail}")


def parse_container(path):
    """Returns (version, ordered {tag: payload}); raises CheckpointError."""
    try:
        with open(path, "rb") as f:
            image = f.read()
    except FileNotFoundError:
        raise CheckpointError("missing", "", f"cannot open {path}")
    except OSError as e:
        raise CheckpointError("io", "", f"cannot read {path}: {e}")

    if len(image) < 8:
        raise CheckpointError(
            "truncated", "",
            f"{path} is only {len(image)} byte(s), shorter than the header")
    if image[:4] != MAGIC:
        raise CheckpointError("bad-magic", "", f"{path} does not start with FTCK")
    version = struct.unpack_from("<I", image, 4)[0]
    if version > FORMAT_VERSION:
        raise CheckpointError(
            "version-skew", "",
            f"{path} has format version {version}, this reader understands"
            f" <= {FORMAT_VERSION}")
    if version == 0:
        raise CheckpointError("format", "", f"{path} has format version 0")

    chunks = {}
    pos = 8
    while True:
        if len(image) - pos < 12:
            raise CheckpointError(
                "truncated", "", f"{path} ends mid-chunk-header at byte {pos}")
        tag_bytes = image[pos:pos + 4]
        if any(b < 0x20 or b > 0x7E for b in tag_bytes):
            raise CheckpointError(
                "format", "",
                f"{path} has a non-printable chunk tag at byte {pos}")
        tag = tag_bytes.decode("ascii")
        length = struct.unpack_from("<Q", image, pos + 4)[0]
        pos += 12
        if length > len(image) - pos:
            raise CheckpointError(
                "truncated", tag,
                f"{path} declares a {length}-byte payload but only"
                f" {len(image) - pos} byte(s) remain")
        payload = image[pos:pos + length]
        pos += length
        if len(image) - pos < 4:
            raise CheckpointError(
                "truncated", tag, f"{path} ends before the chunk checksum")
        stored = struct.unpack_from("<I", image, pos)[0]
        pos += 4
        actual = crc32c(tag_bytes + payload)
        if stored != actual:
            raise CheckpointError(
                "checksum-mismatch", tag,
                f"{path} chunk CRC32C {actual} != stored {stored}")
        if tag_bytes == SENTINEL:
            if length != 0:
                raise CheckpointError(
                    "format", tag, f"{path} end sentinel carries a payload")
            break
        if tag in chunks:
            raise CheckpointError("format", tag, f"{path} contains the chunk twice")
        chunks[tag] = payload
    if pos != len(image):
        raise CheckpointError(
            "format", "",
            f"{path} has {len(image) - pos} trailing byte(s) after the end sentinel")
    return version, chunks


class Payload:
    """Bounds-checked little-endian cursor over one chunk payload."""

    def __init__(self, data, chunk):
        self.data = data
        self.pos = 0
        self.chunk = chunk

    def take(self, n):
        if n > len(self.data) - self.pos:
            raise CheckpointError(
                "truncated", self.chunk,
                f"payload ends after {len(self.data)} bytes, need"
                f" {self.pos}+{n}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self):
        return struct.unpack("<q", self.take(8))[0]

    def f32(self):
        return struct.unpack("<f", self.take(4))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def string(self):
        return self.take(self.u32()).decode("utf-8", errors="replace")

    def expect_done(self):
        if self.pos != len(self.data):
            raise CheckpointError(
                "format", self.chunk,
                f"{len(self.data) - self.pos} unexpected trailing payload byte(s)")


# ---------------------------------------------------------------------------
# Known-chunk decoders (src/core/train_checkpoint.cpp layouts).


def decode_cursor(payload):
    p = Payload(payload, "CURS")
    cur = {
        "next_stage": p.u32(),
        "next_epoch": p.u32(),
        "rate_sum": p.f64(),
        "rate_count": p.i64(),
        "stage_rates": [p.f64() for _ in range(p.u64())],
    }
    cur["epoch_losses"] = [[p.f32() for _ in range(p.u64())]
                           for _ in range(p.u64())]
    p.expect_done()
    return cur


def decode_state_dict(payload, chunk):
    """Returns {name: (shape tuple, raw f32 bytes)}."""
    p = Payload(payload, chunk)
    out = {}
    for _ in range(p.u64()):
        name = p.string()
        rank = p.u32()
        shape = tuple(p.i64() for _ in range(rank))
        numel = 1
        for d in shape:
            if d < 0:
                raise CheckpointError(
                    "format", chunk, f"tensor '{name}' has a negative dimension")
            numel *= d
        if name in out:
            raise CheckpointError("format", chunk, "duplicate state dict entry")
        out[name] = (shape, p.take(4 * numel))
    p.expect_done()
    return out


def decode_rng_streams(payload):
    p = Payload(payload, "RNGS")
    streams = []
    for _ in range(p.u64()):
        name = p.string()
        words = [p.u64() for _ in range(4)]
        has_cached = p.u8() != 0
        cached = p.f32()
        streams.append((name, words, has_cached, cached))
    p.expect_done()
    return streams


# ---------------------------------------------------------------------------
# Commands.


def cmd_verify(path):
    version, chunks = parse_container(path)
    # Validate the known payload layouts too, so verify agrees with the C++
    # load_training_checkpoint, not just with the framing layer. Like the C++
    # reader, unknown chunks (e.g. the retired DMAP/AGEM) only need a sound
    # CRC.
    if "CURS" in chunks:
        decode_cursor(chunks["CURS"])
    for tag in ("MODL", "OPTM"):
        if tag in chunks:
            decode_state_dict(chunks[tag], tag)
    if "RNGS" in chunks:
        decode_rng_streams(chunks["RNGS"])
    total = sum(len(p) for p in chunks.values())
    print(f"OK: {path} version {version}, {len(chunks)} chunk(s),"
          f" {total} payload byte(s)")
    return 0


def _shape_str(shape):
    return "x".join(str(d) for d in shape) if shape else "scalar"


def cmd_dump(path):
    version, chunks = parse_container(path)
    print(f"{path}: FTCK version {version}")
    for tag, payload in chunks.items():
        print(f"  {tag}  {len(payload):>10} bytes"
              f"  crc32c=0x{crc32c(tag.encode() + payload):08x}")
    if "CURS" in chunks:
        cur = decode_cursor(chunks["CURS"])
        done = sum(len(s) for s in cur["epoch_losses"])
        print(f"cursor: next stage {cur['next_stage']}, next epoch"
              f" {cur['next_epoch']} ({done} epoch(s) completed)")
        print(f"  stage rates: {cur['stage_rates']}")
        for s, losses in enumerate(cur["epoch_losses"]):
            print(f"  stage {s} losses: {[round(l, 6) for l in losses]}")
        mean = (cur["rate_sum"] / cur["rate_count"]) if cur["rate_count"] else 0.0
        print(f"  mean cell fault rate so far: {mean:.6g}"
              f" over {cur['rate_count']} injection(s)")
    for tag, label in (("MODL", "model"), ("OPTM", "optimizer")):
        if tag not in chunks:
            continue
        state = decode_state_dict(chunks[tag], tag)
        print(f"{label}: {len(state)} tensor(s)")
        for name, (shape, raw) in state.items():
            print(f"  {name:<40} {_shape_str(shape):>16}  {len(raw)} bytes")
    if "RNGS" in chunks:
        streams = decode_rng_streams(chunks["RNGS"])
        print(f"rng streams: {len(streams)}")
        for name, words, has_cached, cached in streams:
            state = " ".join(f"{w:016x}" for w in words)
            extra = f" cached={cached}" if has_cached else ""
            print(f"  {name}: {state}{extra}")
    return 0


def cmd_diff(path_a, path_b):
    _, a = parse_container(path_a)
    _, b = parse_container(path_b)
    differences = 0

    def report(line):
        nonlocal differences
        differences += 1
        print(line)

    for tag in sorted(set(a) | set(b)):
        if tag not in a:
            report(f"chunk {tag}: only in {path_b}")
        elif tag not in b:
            report(f"chunk {tag}: only in {path_a}")
    for tag in sorted(set(a) & set(b)):
        if a[tag] == b[tag]:
            continue
        if tag in ("MODL", "OPTM"):
            sa = decode_state_dict(a[tag], tag)
            sb = decode_state_dict(b[tag], tag)
            for name in sorted(set(sa) | set(sb)):
                if name not in sa:
                    report(f"{tag} tensor '{name}': only in {path_b}")
                elif name not in sb:
                    report(f"{tag} tensor '{name}': only in {path_a}")
                elif sa[name][0] != sb[name][0]:
                    report(f"{tag} tensor '{name}': shape"
                           f" {_shape_str(sa[name][0])} vs {_shape_str(sb[name][0])}")
                elif sa[name][1] != sb[name][1]:
                    va = struct.unpack(f"<{len(sa[name][1]) // 4}f", sa[name][1])
                    vb = struct.unpack(f"<{len(sb[name][1]) // 4}f", sb[name][1])
                    worst = max(abs(x - y) for x, y in zip(va, vb))
                    count = sum(1 for x, y in zip(va, vb) if x != y)
                    report(f"{tag} tensor '{name}': {count} value(s) differ,"
                           f" max abs diff {worst:.6g}")
        else:
            report(f"chunk {tag}: payloads differ"
                   f" ({len(a[tag])} vs {len(b[tag])} bytes)")
    if differences == 0:
        print("identical")
        return 0
    print(f"{differences} difference(s)")
    return 1


def main(argv):
    if len(argv) >= 2 and argv[0] == "verify":
        try:
            return cmd_verify(argv[1])
        except CheckpointError as e:
            print(e, file=sys.stderr)
            return 1
    if len(argv) >= 2 and argv[0] == "dump":
        try:
            return cmd_dump(argv[1])
        except CheckpointError as e:
            print(e, file=sys.stderr)
            return 1
    if len(argv) >= 3 and argv[0] == "diff":
        try:
            return cmd_diff(argv[1], argv[2])
        except CheckpointError as e:
            print(e, file=sys.stderr)
            return 1
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # e.g. `dump … | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
