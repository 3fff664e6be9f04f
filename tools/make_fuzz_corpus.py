#!/usr/bin/env python3
"""Regenerate the committed fuzz seed corpus under fuzz/corpus/.

The binary targets (graph_csr, forest_parents) consume bytes through
hicond::fuzz::ByteReader (fuzz/fuzz_util.hpp); the encoders here mirror that
decoding exactly and must be kept in sync with it. Deterministic: running
this script twice produces identical files.
"""
from __future__ import annotations

import pathlib
import struct

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fuzz" / "corpus"


def u8(v: int) -> bytes:
    return struct.pack("<B", v & 0xFF)


def u16(v: int) -> bytes:
    return struct.pack("<H", v & 0xFFFF)


def f64(v: float) -> bytes:
    return struct.pack("<d", v)


def f64_bits(bits: int) -> bytes:
    return struct.pack("<Q", bits)


def write(target: str, name: str, payload: bytes) -> None:
    path = CORPUS / target / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    print(f"wrote {path.relative_to(ROOT)} ({len(payload)} bytes)")


# ---------------------------------------------------------------------------
# json: raw text fed to obs::parse_json and obs::parse_json_packed, which
# must agree; a document that parses must also re-parse bit for bit.
# ---------------------------------------------------------------------------
def make_json() -> None:
    write(
        "json",
        "valid_nested",
        b'{"run":{"id":17,"ok":true,"phi":[0.25,1.0e-3,-4],'
        b'"note":null,"tags":["a","b"]}}',
    )
    write("json", "escapes", b'{"s":"a\\"b\\\\c\\n\\t\\u0041\\u00e9"}')
    write("json", "numbers", b"[0,-0,3.5,1e3,1E-3,2.25e+2,9007199254740993]")
    write("json", "truncated_object", b'{"a":[1,2')
    write("json", "unterminated_string", b'{"a":"never closed')
    # Regression: before the recursion-depth limit this overflowed the stack.
    write("json", "deep_nesting", b"[" * 200 + b"1" + b"]" * 200)
    # Regression: strtod overflow yields +inf, which is not valid JSON.
    write("json", "overflow_1e999", b"[1e999]")
    write("json", "bad_token", b"{tru: 1}")
    write("json", "empty", b"")
    # Below the smallest subnormal: zero of the literal's sign, not an error
    # (std::from_chars reports these out of range).
    write("json", "underflow_1e-400", b'{"b":[1e-400,-1e-400,2e-324,0]}')
    write(
        "json",
        "subnormals",
        b"[5e-324,-5e-324,4.9406564584124654e-324,2.2250738585072009e-308,"
        b"2.2250738585072014e-308,1e-310]",
    )
    write("json", "negative_zero", b'{"x":-0,"v":[-0,0,-0.0,-0e5]}')
    # Arrays that start as numbers and then hold a non-number: the packed
    # parse must turn the numbers it already read into DOM nodes.
    write(
        "json",
        "mixed_arrays",
        b'{"b":[1,2.5,"x"],"rhs":[[1,2],3,[4]],"u":[0,{"k":1},true,null]}',
    )
    # More digits than a double holds: the conversion must round correctly
    # (the 2^53 + 1 midpoint and a 400-digit mantissa).
    write(
        "json",
        "long_mantissa",
        b"[9007199254740993,0." + b"1" * 400 + b",1." + b"0" * 300 + b"1e-5,"
        b"2.47032822920623272e-324]",
    )


# ---------------------------------------------------------------------------
# graph_csr: n = u8 % 17; arcs = u8 % 65; offsets (n+1) x u16 with value
# (u16 % 97) - 16; targets arcs x u8 with value u8 - 8; weights arcs x f64.
# ---------------------------------------------------------------------------
def csr_input(n: int, offsets: list[int], targets: list[int],
              weights: list[float | bytes]) -> bytes:
    out = u8(n) + u8(len(targets))
    assert len(offsets) == n + 1
    for o in offsets:
        out += u16(o + 16)
    for t in targets:
        out += u8(t + 8)
    for w in weights:
        out += w if isinstance(w, bytes) else f64(w)
    return out


def make_graph_csr() -> None:
    # Weighted triangle: per-vertex sorted adjacency, symmetric weights.
    write(
        "graph_csr",
        "valid_triangle",
        csr_input(3, [0, 2, 4, 6], [1, 2, 0, 2, 0, 1],
                  [1.0, 3.0, 1.0, 2.0, 3.0, 2.0]),
    )
    write("graph_csr", "empty_graph", csr_input(0, [0], [], []))
    write(
        "graph_csr",
        "ragged_offsets",
        csr_input(3, [0, 4, 2, 6], [1, 2, 0, 2, 0, 1],
                  [1.0] * 6),
    )
    write(
        "graph_csr",
        "negative_target",
        csr_input(2, [0, 1, 2], [-3, 0], [1.0, 1.0]),
    )
    write(
        "graph_csr",
        "nan_weight",
        csr_input(2, [0, 1, 2], [1, 0],
                  [f64_bits(0x7FF8000000000001), 1.0]),
    )
    write(
        "graph_csr",
        "asymmetric_weight",
        csr_input(2, [0, 1, 2], [1, 0], [1.0, 2.0]),
    )
    write("graph_csr", "short_read", u8(9))


# ---------------------------------------------------------------------------
# forest_parents: n = u8 % 33; flags = u8 (bit0 = weights present); parents
# n x u16 with value (u16 % (n + 3)) - 2; optional weights n x f64.
# ---------------------------------------------------------------------------
def forest_input(n: int, flags: int, parents: list[int],
                 weights: list[float | bytes] | None = None) -> bytes:
    out = u8(n) + u8(flags)
    assert len(parents) == n
    for p in parents:
        out += u16(p + 2)
    for w in weights or []:
        out += w if isinstance(w, bytes) else f64(w)
    return out


def make_forest_parents() -> None:
    write("forest_parents", "valid_two_trees",
          forest_input(5, 0, [-1, 0, 0, 1, -1]))
    write("forest_parents", "valid_weighted",
          forest_input(4, 1, [-1, 0, 1, 2], [0.0, 1.0, 2.5, 0.25]))
    write("forest_parents", "self_parent", forest_input(3, 0, [-1, 1, 0]))
    write("forest_parents", "two_cycle", forest_input(4, 0, [-1, 2, 1, 0]))
    write("forest_parents", "out_of_range", forest_input(3, 0, [-1, 3, 0]))
    write("forest_parents", "negative_parent", forest_input(3, 0, [-1, -2, 0]))
    write("forest_parents", "nan_weight",
          forest_input(2, 1, [-1, 0],
                       [1.0, f64_bits(0x7FF8000000000000)]))
    write("forest_parents", "empty_forest", forest_input(0, 0, []))


# ---------------------------------------------------------------------------
# graph_io: raw text fed to both read_graph and read_metis.
# ---------------------------------------------------------------------------
def make_graph_io() -> None:
    write("graph_io", "valid_edge_list",
          b"3 3\n0 1 1.0\n1 2 2.0\n0 2 3.0\n")
    write("graph_io", "valid_metis",
          b"% a metis-format triangle\n3 3 1\n2 1 3 3\n1 1 3 2\n1 3 2 2\n")
    write("graph_io", "comments_and_blanks",
          b"# header comment\n\n2 1\n% inner comment\n0 1 4.5\n")
    write("graph_io", "truncated_edges", b"4 3\n0 1 1.0\n")
    write("graph_io", "self_loop", b"2 1\n0 0 1.0\n")
    write("graph_io", "bad_index", b"2 1\n0 7 1.0\n")
    write("graph_io", "garbage", b"not a graph at all\n")
    # Header just under the harness's 6-digit clamp: large but parseable.
    write("graph_io", "large_header", b"999999 1\n0 1 1.0\n")


# ---------------------------------------------------------------------------
# wire: raw bytes framed by wire::LineBuffer and round-tripped through a
# socketpair; complete lines additionally go through serve::parse_envelope
# (id / op / deadline_ms), the parse stage of the server and the router.
# ---------------------------------------------------------------------------
def make_wire() -> None:
    write(
        "wire",
        "three_requests",
        b'{"id":1,"op":"topology"}\n'
        b'{"id":2,"op":"solve","deadline_ms":250.0,"rhs":[0.5,-1.0]}\n'
        b'{"id":3,"op":"stats"}\n',
    )
    write("wire", "short_lines", b"a\nbb\nccc\ndddd\n")
    write("wire", "no_trailing_newline", b'{"id":4,"op":"load"')
    write("wire", "empty_lines", b"\n\n\n")
    # '\r' is payload, not a delimiter: NDJSON frames on bare '\n'.
    write("wire", "crlf_is_payload", b"line1\r\nline2\r\n")
    write("wire", "all_bytes", bytes(range(256)) + b"\n")
    write("wire", "bad_request_lines", b'{"op":42}\n{"id":"x","op":[]}\n')
    # Ids that are not integers in [0, 2^53]: each must be refused with a
    # well-formed parse_error, never cast with undefined behaviour.
    write(
        "wire",
        "hostile_ids",
        b'{"id":1e300,"op":"stats"}\n{"id":-2,"op":"shutdown"}\n'
        b'{"id":1.7,"op":"stats"}\n{"id":-1e300,"op":"stats"}\n'
        b'{"id":9007199254740994,"op":"stats"}\n',
    )
    # Longer than one read_into chunk boundary-derived append; ends with an
    # unterminated tail that must stay buffered.
    write("wire", "long_line", b"x" * 5000 + b"\n" + b"y" * 100)
    write("wire", "empty", b"")


# ---------------------------------------------------------------------------
# closure: n = 1 + u8 % 10; member mask = u16 & (2^n - 1) (0 -> {0});
# edges = u8 % 46, each u8 % n, u8 % n, u16 weight code c with weight
# 10^(-6 + 12 c / 65535). Self-loops are skipped, parallel edges merge.
# ---------------------------------------------------------------------------
W_MIN, W_ONE, W_MAX = 0, 32768, 65535  # weight codes: 1e-6, ~1, 1e6


def closure_input(n: int, members: list[int],
                  edges: list[tuple[int, int, int]]) -> bytes:
    mask = sum(1 << v for v in members)
    out = u8(n - 1) + u16(mask) + u8(len(edges))
    for a, b, code in edges:
        out += u8(a) + u8(b) + u16(code)
    return out


def make_closure() -> None:
    path = [(v, v + 1, W_ONE) for v in range(4)]
    write("closure", "path_middle", closure_input(5, [1, 2, 3], path))
    ring = [(v, (v + 1) % 6, W_MIN if v % 2 else W_MAX) for v in range(6)]
    write("closure", "weight_spread", closure_input(6, [0, 1, 2, 3], ring))
    write("closure", "disconnected_members",
          closure_input(4, [0, 2], [(0, 1, W_ONE), (2, 3, W_ONE)]))
    write("closure", "isolated_single",
          closure_input(3, [2], [(0, 1, W_ONE)]))
    # A member without edges: its side of every bipartition has volume 0.
    write("closure", "isolated_member",
          closure_input(3, [0, 2], [(0, 1, W_ONE)]))
    k4 = [(a, b, 9000 * (a + 1) + 4000 * b)
          for a in range(4) for b in range(a + 1, 4)]
    write("closure", "whole_component", closure_input(4, [0, 1, 2, 3], k4))
    # Two heavy triangles joined by a 1e-6 bridge, one light boundary edge.
    dumbbell = [(0, 1, W_MAX), (1, 2, W_MAX), (0, 2, W_MAX),
                (3, 4, W_MAX), (4, 5, W_MAX), (3, 5, W_MAX),
                (2, 3, W_MIN), (5, 6, W_MIN)]
    write("closure", "tiny_bridge",
          closure_input(7, [0, 1, 2, 3, 4, 5], dumbbell))
    ten = [(v, (v + 1) % 10, 6500 * v) for v in range(10)]
    ten += [(v, (v + 3) % 10, 65535 - 6500 * v) for v in range(0, 10, 2)]
    write("closure", "ring_with_chords",
          closure_input(10, [0, 1, 2, 3, 4, 5], ten))
    dense = [(a, b, (a * 7919 + b * 104729) % 65536)
             for a in range(10) for b in range(a + 1, 10)]
    write("closure", "complete_ten", closure_input(10, [0, 1, 2, 3, 4], dense))
    write("closure", "empty", b"")


def main() -> None:
    make_json()
    make_graph_csr()
    make_forest_parents()
    make_graph_io()
    make_wire()
    make_closure()


if __name__ == "__main__":
    main()
