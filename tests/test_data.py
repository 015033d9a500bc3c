"""Parsing, windowing, and displacement round-trip tests."""

import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgcn import data as dd
from sgcn import synthetic
from sgcn.errors import ConfigError, DataError, SgcnError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def make_table(rows, name="TEST"):
    """Build a table directly from (frame, id, x, y) tuples."""
    frames = np.array([r[0] for r in rows], dtype=np.int64)
    ids = np.array([r[1] for r in rows], dtype=np.int64)
    xy = np.array([[r[2], r[3]] for r in rows], dtype=np.float64)
    order = np.lexsort((ids, frames))
    return dd.RawTrajectoryTable(name=name, frames=frames[order], ped_ids=ids[order], xy=xy[order])


class TestLoadSceneFile:
    def test_two_valid_lines(self, tmp_path):
        p = write_lines(tmp_path / "a.txt", ["10 1 2.5 3.5", "20 1 2.6 3.6"])
        table = dd.load_scene_file(p)
        assert len(table.frames) == len(table.ped_ids) == len(table.xy) == 2
        assert table.name == "A"
        assert_allclose(table.xy[0], [2.5, 3.5])

    def test_three_fields_rejected_with_line_number(self, tmp_path):
        p = write_lines(tmp_path / "bad.txt", ["10 1 2.5 3.5", "10 1 2.5"])
        with pytest.raises(DataError, match="bad.txt:2"):
            dd.load_scene_file(p)

    @pytest.mark.parametrize("x, y", [("nan", "1.0"), ("0.5", "inf"), ("-inf", "NaN")])
    def test_non_finite_position_rejected_with_line_number(self, tmp_path, x, y):
        # the blank line keeps row and line numbers apart
        p = write_lines(tmp_path / "bad.txt", ["10 1 2.5 3.5", "", f"20 1 {x} {y}", "30 1 2.7 3.7"])
        with pytest.raises(DataError, match="bad.txt:3: position fields must be finite"):
            dd.load_scene_file(p)

    @pytest.mark.parametrize("x, y", [("abc", "1.0"), ("0.5", "1,5")])
    def test_non_numeric_position_rejected_with_line_number(self, tmp_path, x, y):
        p = write_lines(tmp_path / "bad.txt", ["10 1 2.5 3.5", "", f"20 1 {x} {y}", "30 1 2.7 3.7"])
        with pytest.raises(DataError, match="bad.txt:3: position fields must be numeric"):
            dd.load_scene_file(p)

    @pytest.mark.parametrize("line, message", [
        ("20 1 1_5 2.0", "position fields must be numeric"),
        ("20 1 \u0661.\u0665 2.0", "position fields must be numeric"),
        ("1_0 1 2.5 3.5", "frame_id '1_0' is not numeric"),
        ("20 \u0661.0 2.5 3.5", "pedestrian_id '\u0661.0' is not numeric"),
    ], ids=["position_underscore", "position_arabic_indic", "frame_underscore", "pedestrian_arabic_indic"])
    def test_python_only_numeral_rejected_with_line_number(self, tmp_path, line, message):
        # int() and float() read "1_5" as 15 and Arabic-Indic digits as ASCII ones
        p = write_lines(tmp_path / "bad.txt", ["10 1 2.5 3.5", line])
        with pytest.raises(DataError, match=re.escape(f"bad.txt:2: {message}")):
            dd.load_scene_file(p)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_frame_id_rejected_with_line_number(self, tmp_path, token):
        p = write_lines(tmp_path / "bad.txt", ["10 1 2.5 3.5", f"{token} 1 2.5 3.5"])
        with pytest.raises(DataError, match="bad.txt:2: frame_id .* is not integral"):
            dd.load_scene_file(p)

    @pytest.mark.parametrize("line, what", [
        ("10000000000000000000 1 2.5 3.5", "frame_id"),
        ("10 10000000000000000000 2.5 3.5", "pedestrian_id"),
        ("10 -9223372036854775808 2.5 3.5", "pedestrian_id"),
    ], ids=["frame", "pedestrian", "pedestrian_at_int64_min"])
    def test_id_beyond_int64_rejected_with_line_number(self, tmp_path, line, what):
        p = write_lines(tmp_path / "bad.txt", ["10 1 2.5 3.5", line])
        with pytest.raises(DataError, match=f"bad.txt:2: {what} .* is outside the int64 range"):
            dd.load_scene_file(p)

    @pytest.mark.parametrize("token, verdict", [
        ("1" * 5000, "is outside the int64 range"),  # more digits than int() reads
        ("x" * 5000, "is not numeric"),
        ("0." + "1" * 5000, "is not integral"),
    ], ids=["too_long_for_int", "not_numeric", "not_integral"])
    def test_long_id_token_message_is_short(self, tmp_path, token, verdict):
        p = write_lines(tmp_path / "big.txt", [f"0 {token} 1.0 1.0"])
        with pytest.raises(DataError, match=re.escape(f"big.txt:1: pedestrian_id '{token[:40]}...' {verdict}")) as info:
            dd.load_scene_file(p)
        assert len(str(info.value)) - len(str(p)) < 100

    def test_undecodable_byte_named_with_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"10 1 2.5 3.5\n\n20 1 2.5\xff 3.5\n30 1 x 3.5\n")
        with pytest.raises(DataError, match="bad.txt:3: byte 0xff is not"):
            dd.load_scene_file(p)

    def test_duplicate_pair_rejected(self, tmp_path):
        p = write_lines(tmp_path / "dup.txt", ["10 1 0 0", "10 1 1 1"])
        with pytest.raises(DataError, match="duplicate"):
            dd.load_scene_file(p)

    def test_negative_id_is_not_a_duplicate(self, tmp_path):
        p = write_lines(tmp_path / "neg.txt", ["0 5 1.0 1.0", "1 -1 2.0 2.0"])
        table = dd.load_scene_file(p)
        assert table.ped_ids.tolist() == [5, -1]

    def test_duplicate_pair_with_negative_id_rejected(self, tmp_path):
        p = write_lines(tmp_path / "dup.txt", ["0 5 1.0 1.0", "1 -1 2.0 2.0", "1 -1 3.0 3.0"])
        with pytest.raises(DataError, match=r"dup.txt:3: duplicate .* \(1, -1\) of line 2"):
            dd.load_scene_file(p)

    @pytest.mark.parametrize("frame", ["10", "9007199254740993"], ids=["one_pass_reader", "per_line_reader"])
    def test_duplicate_pair_names_both_file_lines(self, tmp_path, frame):
        # sorted, the pair sits at rows 1 and 2; in the file, blank lines apart, at lines 1 and 5
        p = write_lines(tmp_path / "dup.txt", [f"{frame} 1 0 0", "", "0 2 1 1", " \t", f"{frame} 1 2 2"])
        with pytest.raises(DataError, match=rf"dup.txt:5: duplicate .* \({frame}, 1\) of line 1$"):
            dd.load_scene_file(p)

    def test_ids_beyond_float_precision_stay_exact(self, tmp_path):
        # 2**53 + 1 and 2**53 are one float64 value
        p = write_lines(tmp_path / "big.txt", ["0 9007199254740993 1.0 1.0", "0 9007199254740992 2.0 2.0"])
        table = dd.load_scene_file(p)
        assert table.ped_ids.tolist() == [9007199254740992, 9007199254740993]
        assert table.xy.tolist() == [[2.0, 2.0], [1.0, 1.0]]

    def test_empty_file_rejected(self, tmp_path):
        p = write_lines(tmp_path / "empty.txt", [""])
        with pytest.raises(DataError, match="no trajectory rows"):
            dd.load_scene_file(p)

    def test_integral_decimals_accepted(self, tmp_path):
        p = write_lines(tmp_path / "dec.txt", ["10.0 1.0 0.5 0.5"])
        table = dd.load_scene_file(p)
        assert table.frames[0] == 10 and table.ped_ids[0] == 1

    def test_fractional_frame_rejected(self, tmp_path):
        p = write_lines(tmp_path / "frac.txt", ["10.5 1 0 0"])
        with pytest.raises(DataError, match="not integral"):
            dd.load_scene_file(p)

    def test_rows_sorted_by_frame_then_id(self, tmp_path):
        p = write_lines(tmp_path / "s.txt", ["20 2 0 0", "10 5 1 1", "20 1 2 2", "10 1 3 3"])
        table = dd.load_scene_file(p)
        assert list(table.frames) == [10, 10, 20, 20]
        assert list(table.ped_ids) == [1, 5, 1, 2]


class TestReaderSelection:
    """A file the one-pass read can vouch for skips the per-line rules."""

    @pytest.mark.parametrize("lines", [
        ["20 2 0.25 1", "", "10 1 2.5 -3.5"],
        ["20.0 2.0 0.25 1", "", "1e1 1.0 2.5 -3.5"],
    ], ids=["integer_ids", "decimal_ids"])
    def test_plain_file_read_in_one_pass(self, tmp_path, lines):
        p = write_lines(tmp_path / "a.txt", lines)
        with mock.patch.object(dd, "_read_lines", side_effect=AssertionError("per-line rules ran")):
            table = dd.load_scene_file(p)
        assert table.frames.tolist() == [10, 20] and table.ped_ids.tolist() == [1, 2]
        assert table.xy.tolist() == [[2.5, -3.5], [0.25, 1.0]]


# Spellings on which a one-pass reader and the per-line rules could disagree.
ODD_TOKENS = (
    "+5", "-0", "007", "10.0", "1.0", "10.5", "1e3", "1_0", "\u0663", "nan", "-inf", "1e400", "1e-400",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808", "0x10", ".5", "3.", "#", "1\x00",
    "9007199254740993", "-9007199254740992", "9007199254740992.0", "9007199254740990.5", "4503599627370495.5",
)
SEPARATORS = (" ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000", "\x85", "\x1c")
ENDINGS = ("\n", "\r\n", "\r")
BLANK_LINES = ("", " ", "\t", "\xa0")


@st.composite
def scene_files(draw):
    """File bytes: clean rows in fuzzed layout, or rows with odd tokens, field counts and bytes."""
    odd = draw(st.booleans())
    text = ""
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            text += draw(st.sampled_from(BLANK_LINES)) + draw(st.sampled_from(ENDINGS))
            continue
        tokens = [
            str(draw(st.integers(0, 4))),
            str(draw(st.integers(-2, 2))),
            repr(draw(st.floats(-1e3, 1e3))),
            repr(draw(st.floats(-1e3, 1e3))),
        ]
        if odd:
            tokens = [draw(st.sampled_from(ODD_TOKENS)) if draw(st.integers(0, 3)) == 0 else t for t in tokens]
            tokens = tokens[: draw(st.sampled_from((3, 4, 4, 4)))] + ["1"] * draw(st.sampled_from((0, 0, 0, 1)))
        line = draw(st.sampled_from(("", " ", "\t"))) + "".join(t + draw(st.sampled_from(SEPARATORS)) for t in tokens)
        text += line.rstrip(" ") + draw(st.sampled_from(ENDINGS))
    raw = text.encode()
    if odd and draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def load_outcome(path):
    """A table as its name and raw arrays, or the SgcnError it raised as type and message."""
    try:
        table = dd.load_scene_file(path)
    except SgcnError as err:
        return repr(err)
    return [table.name] + [(a.dtype.str, a.shape, a.strides, a.tobytes()) for a in (table.frames, table.ped_ids, table.xy)]


@given(scene_files())
@example(b"0 -9223372036854775808 1.0 1.0\n")  # beyond 2**53: the per-line rules decide
@example(b"10 1.0 0.5 0.5\r\n\n10.0 2 0.5 0.5\r\n")  # decimal-spelled ids
@example(b"20 1 1_5 2.0\n1_0 2 0.5 0.5\n")  # digit-group underscores
@example("20 1 \u0661.\u0665 2.0\n\u0661 2 0.5 0.5\n".encode())  # Arabic-Indic digits
@settings(max_examples=300, deadline=None)
def test_one_pass_read_matches_per_line_rules(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_bytes(raw)
        got = load_outcome(path)
        with mock.patch.object(dd, "_read_records", return_value=None):
            want = load_outcome(path)
    assert got == want
    if isinstance(got, str):
        assert got.startswith("DataError(")


def walk_rows(pid, start_frame, n, step=10, x0=0.0):
    return [(start_frame + i * step, pid, x0 + 0.5 * i, 1.0) for i in range(n)]


class TestWindowScenes:
    def test_exact_fit_single_window(self):
        table = make_table(walk_rows(1, 0, 20))
        scenes = dd.window_scenes(table, t_obs=8, t_pred=12)
        assert len(scenes) == 1
        assert scenes[0].pedestrian_ids == (1,)
        assert scenes[0].positions_obs.shape == (8, 1, 2)
        assert scenes[0].positions_fut.shape == (12, 1, 2)

    def test_extra_frame_gives_two_windows(self):
        table = make_table(walk_rows(1, 0, 21))
        assert len(dd.window_scenes(table, 8, 12)) == 2

    def test_partial_pedestrian_excluded_from_early_window(self):
        rows = walk_rows(1, 0, 20) + walk_rows(2, 50, 15, x0=5.0)
        table = make_table(rows)
        scenes = dd.window_scenes(table, 8, 12)
        assert len(scenes) == 1
        assert scenes[0].pedestrian_ids == (1,)

    @pytest.mark.parametrize("t_obs, t_pred", [(0, 12), (8, 0), (-1, -1)])
    def test_horizon_below_one_rejected(self, t_obs, t_pred):
        with pytest.raises(ConfigError, match=rf"t_obs, t_pred must be >= 1, got {t_obs}, {t_pred}"):
            dd.window_scenes(make_table(walk_rows(1, 0, 20)), t_obs, t_pred)

    def test_too_short_table_yields_nothing(self):
        table = make_table(walk_rows(1, 0, 19))
        assert dd.window_scenes(table, 8, 12) == []

    def test_gap_in_frames_breaks_windows(self):
        rows = walk_rows(1, 0, 10) + walk_rows(1, 150, 10, x0=9.0)
        table = make_table(rows)
        assert dd.window_scenes(table, 8, 12) == []

    def test_translation_invariance(self):
        rows = walk_rows(1, 0, 22) + walk_rows(2, 30, 21, x0=3.0)
        shifted = [(f + 7000, p, x, y) for f, p, x, y in rows]
        a = dd.window_scenes(make_table(rows), 8, 12)
        b = dd.window_scenes(make_table(shifted), 8, 12)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.pedestrian_ids == sb.pedestrian_ids
            assert np.array_equal(sa.positions_obs, sb.positions_obs)
            assert np.array_equal(sa.positions_fut, sb.positions_fut)

    def test_frame_span_beyond_int64(self):
        # 20 frames 5e17 apart span 9.5e18 > 2**63 - 1: the spacing check must not wrap
        rows = walk_rows(1, -5 * 10**18, 20, step=5 * 10**17)
        scenes = dd.window_scenes(make_table(rows), 8, 12)
        assert [s.start_frame for s in scenes] == [-5 * 10**18]

    def test_frame_step_beyond_int64(self):
        # two frames 1e19 apart: an int64 difference wraps negative
        table = make_table([(-5 * 10**18, 1, 0.0, 0.0), (5 * 10**18, 1, 0.5, 0.0)])
        scene, dropped = dd.last_observation(table, 2, "test.txt")
        assert scene.pedestrian_ids == (1,) and scene.start_frame == -5 * 10**18
        assert dropped == []

    def test_ids_sorted_within_window(self):
        rows = walk_rows(9, 0, 20) + walk_rows(2, 0, 20, x0=4.0)
        scenes = dd.window_scenes(make_table(rows), 8, 12)
        assert scenes[0].pedestrian_ids == (2, 9)


def brute_force_windows(table, t_obs, t_pred):
    """Independent enumerator: frame arithmetic and per-pedestrian presence by search."""
    total = t_obs + t_pred
    unique = sorted(set(table.frames.tolist()))
    if len(unique) < 2:
        step = 1
    else:
        step = min(b - a for a, b in zip(unique, unique[1:]))
    have = {(int(f), int(p)) for f, p in zip(table.frames, table.ped_ids)}
    out = []
    for s in range(len(unique) - total + 1):
        frames = [unique[s] + k * step for k in range(total)]
        if any(f not in unique for f in frames):
            continue
        ids = sorted(
            p for p in set(table.ped_ids.tolist()) if all((f, p) in have for f in frames)
        )
        if ids:
            out.append((frames[0], tuple(ids)))
    return out


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@example(9, 1)  # a lone track's missed observation is a recording gap
@example(48, 2)  # a recording gap before a late pedestrian
@example(11, 2)  # one track ends the frame before another starts
@settings(max_examples=40, deadline=None)
def test_windowing_matches_brute_force(seed, n_peds):
    rng = np.random.default_rng(seed)
    rows = []
    for pid in range(1, n_peds + 1):
        start = int(rng.integers(0, 8))
        length = int(rng.integers(1, 26))
        track = walk_rows(pid, start * 10, length, x0=float(pid))
        if length > 1 and rng.integers(0, 2):  # one missed observation
            del track[int(rng.integers(0, length))]
        rows.extend(track)
    if rng.integers(0, 2):  # a recording gap before a late pedestrian
        rows.extend(walk_rows(n_peds + 1, 400, int(rng.integers(1, 14))))
    dedup = {}
    for r in rows:
        dedup[(r[0], r[1])] = r
    table = make_table(list(dedup.values()))
    t_obs, t_pred = 4, 6
    got = dd.window_scenes(table, t_obs, t_pred)
    want = brute_force_windows(table, t_obs, t_pred)
    assert [(s.start_frame, s.pedestrian_ids) for s in got] == want
    unique = sorted(set(table.frames.tolist()))
    xy_at = {(int(f), int(p)): xy for f, p, xy in zip(table.frames, table.ped_ids, table.xy)}
    for s in got:
        first = unique.index(s.start_frame)
        window = unique[first : first + t_obs + t_pred]
        expected = np.array([[xy_at[(f, p)] for p in s.pedestrian_ids] for f in window])
        assert np.array_equal(s.positions_obs, expected[:t_obs])
        assert np.array_equal(s.positions_fut, expected[t_obs:])
        assert s.positions_obs.flags.c_contiguous and s.positions_fut.flags.c_contiguous
        assert s.displacements_obs.shape == s.positions_obs.shape


INT64_MAX = 2**63 - 1
EDGE_IDS = (0, 1, -1, 2**53, 2**53 + 1, -(2**53) - 3, INT64_MAX, -INT64_MAX)


def memory_owner(array):
    while array.base is not None:
        array = array.base
    return array


@st.composite
def edge_tables(draw):
    """(rows, t_obs, t_pred): up to 4 pedestrians, each at some frames of a grid that may touch either int64 edge."""
    t_obs, t_pred = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    step = draw(st.sampled_from((1, 10, 5 * 10**17)) | st.integers(1, 5 * 10**17))
    slots = draw(st.integers(1, 10))
    lo, hi = -(2**63), INT64_MAX - (slots - 1) * step
    origin = draw(st.sampled_from((lo, hi)) | st.integers(lo, hi))
    frames = [origin + k * step for k in range(slots) if draw(st.integers(0, 5))]  # a dropped slot is a gap
    id_values = st.sampled_from(EDGE_IDS) | st.integers(-INT64_MAX, INT64_MAX)
    ids = draw(st.lists(id_values, min_size=1, max_size=4, unique=True))
    rows = [(f, p, float(len(ids) * i + j), -0.5 * i) for i, f in enumerate(frames)
            for j, p in enumerate(ids) if draw(st.integers(0, 4))]
    return rows or [(origin, ids[0], 0.0, 0.0)], t_obs, t_pred


@given(edge_tables())
@example(([(-(2**63) + k * 5 * 10**17, INT64_MAX, float(k), 0.0) for k in range(6)], 3, 3))  # lower edge
@example(([(INT64_MAX - k * 5 * 10**17, -INT64_MAX, float(k), 0.0) for k in range(6)], 1, 1))  # upper edge
@example(([(7, p, float(p), 0.0) for p in EDGE_IDS], 1, 1))  # a single frame
@settings(max_examples=200, deadline=None)
def test_windows_at_int64_edges_match_brute_force(case):
    rows, t_obs, t_pred = case
    table = make_table(rows)
    got = dd.window_scenes(table, t_obs, t_pred)
    assert [(s.start_frame, s.pedestrian_ids) for s in got] == brute_force_windows(table, t_obs, t_pred)
    unique = sorted(set(table.frames.tolist()))
    xy_at = {(f, p): (x, y) for f, p, x, y in rows}
    arrays = []
    for s in got:
        assert type(s.start_frame) is int and all(type(p) is int for p in s.pedestrian_ids)
        first = unique.index(s.start_frame)
        window = unique[first : first + t_obs + t_pred]
        expected = np.array([[xy_at[(f, p)] for p in s.pedestrian_ids] for f in window])
        assert np.array_equal(np.concatenate([s.positions_obs, s.positions_fut]), expected)
        assert s.positions_obs.flags.c_contiguous and s.positions_fut.flags.c_contiguous
        arrays.append((s.positions_obs, s.positions_fut))
        owners = {id(o): o for o in map(memory_owner, arrays[-1])}
        assert sum(o.nbytes for o in owners.values()) == s.positions_obs.nbytes + s.positions_fut.nbytes
    # No two windows share memory, nor the memory bounds that views of one shared gather would.
    for i, mine in enumerate(arrays):
        for theirs in arrays[i + 1:]:
            assert not any(np.may_share_memory(a, b) for a in mine for b in theirs)
            assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@example(3, 2)  # recording gap
@example(6, 2)  # nobody present at all frames
@example(30, 2)  # too few frames
@settings(max_examples=40, deadline=None)
def test_last_observation_matches_brute_force(seed, n_peds):
    rng = np.random.default_rng(seed)
    rows = []
    for pid in range(1, n_peds + 1):
        start = int(rng.integers(0, 8))
        length = int(rng.integers(1, 14))
        track = walk_rows(pid, start * 10, length, x0=float(pid))
        if length > 1 and rng.integers(0, 2):  # one missed observation
            del track[int(rng.integers(0, length))]
        rows.extend(track)
    if rng.integers(0, 2):  # a recording gap before a lone late pedestrian
        rows.extend(walk_rows(n_peds + 1, 250, int(rng.integers(1, 6))))
    dedup = {}
    for r in rows:
        dedup[(r[0], r[1])] = r
    table = make_table(list(dedup.values()))
    t_obs = 4
    last_start = sorted(set(table.frames.tolist()))[-t_obs:][0]
    want = [ids for start, ids in brute_force_windows(table, t_obs, 0) if start == last_start]
    if not want:  # too few frames, a gap, or nobody present throughout
        with pytest.raises(DataError, match="test.txt"):
            dd.last_observation(table, t_obs, "test.txt")
        return
    scene, dropped = dd.last_observation(table, t_obs, "test.txt")
    assert scene.pedestrian_ids == want[0]
    seen = {int(p) for f, p in zip(table.frames, table.ped_ids) if f >= last_start}
    assert dropped == sorted(seen - set(want[0]))
    xy_at = {(int(f), int(p)): xy for f, p, xy in zip(table.frames, table.ped_ids, table.xy)}
    expected = [[xy_at[(last_start + 10 * t, p)] for p in want[0]] for t in range(t_obs)]
    assert np.array_equal(scene.positions_obs, np.array(expected))
    obs = scene.positions_obs
    assert np.array_equal(scene.displacements_obs, np.diff(obs, axis=0, prepend=obs[:1]))
    assert scene.start_frame == last_start and scene.positions_fut.shape == (0, len(want[0]), 2)


class TestDisplacements:
    def test_stationary_all_zero(self):
        pos = np.ones((5, 2, 2))
        scene = dd.TrajectoryScene((1, 2), pos, np.ones((3, 2, 2)))
        assert_allclose(scene.displacements_obs, 0.0)

    def test_finite_differencing(self):
        pos = np.zeros((3, 1, 2))
        pos[:, 0, 0] = [0.0, 1.0, 3.0]
        scene = dd.TrajectoryScene((1,), pos, np.zeros((1, 1, 2)))
        assert_allclose(scene.displacements_obs[:, 0, 0], [0.0, 1.0, 2.0])

    def test_first_step_is_zero_vector(self):
        rng = np.random.default_rng(0)
        scene = dd.TrajectoryScene((1, 2, 3), rng.normal(size=(8, 3, 2)), rng.normal(size=(12, 3, 2)))
        assert_allclose(scene.displacements_obs[0], 0.0)

    def test_future_targets_anchor_at_last_observation(self):
        pos_obs = np.zeros((2, 1, 2))
        pos_obs[1, 0] = [1.0, 0.0]
        pos_fut = np.array([[[1.5, 0.0]], [[2.5, 0.5]]])
        scene = dd.TrajectoryScene((1,), pos_obs, pos_fut)
        target = dd.future_displacements(scene)
        assert_allclose(target, [[[0.5, 0.0]], [[1.0, 0.5]]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_grid_round_trip_exact(self, seed):
        # On 1/64-grid coordinates reconstruction is bit-exact, not just close.
        rng = np.random.default_rng(seed)
        pos = rng.integers(-2000, 2000, size=(8, 3, 2)) / synthetic.GRID
        scene = dd.TrajectoryScene((1, 2, 3), pos, np.zeros((1, 3, 2)))
        rebuilt = dd.reconstruct_positions(pos[0], scene.displacements_obs)
        assert np.array_equal(rebuilt, pos)


class TestSplit:
    def tables(self, tmp_path):
        synthetic.write_dataset(tmp_path, n_steps=40)
        return dd.load_dataset(tmp_path)

    def test_five_scene_split(self, tmp_path):
        tables = self.tables(tmp_path)
        split = dd.leave_one_out_split(tables, "ZARA1", 8, 12)
        assert all(s.scene_name == "ZARA1" for s in split.test_scenes)
        assert all(s.scene_name != "ZARA1" for s in split.train_scenes)
        assert {s.scene_name for s in split.train_scenes} == {"ETH", "HOTEL", "UNIV", "ZARA2"}

    def test_directory_without_scene_files_rejected(self, tmp_path):
        (tmp_path / "notes.csv").write_text("10 1 2.5 3.5\n")
        with pytest.raises(DataError, match=rf"no \*\.txt scene files under {re.escape(str(tmp_path))}$"):
            dd.load_dataset(tmp_path)

    def test_unknown_holdout(self, tmp_path):
        with pytest.raises(ConfigError, match="FOO"):
            dd.leave_one_out_split(self.tables(tmp_path), "FOO", 8, 12)

    def test_stems_equal_up_to_case_rejected(self, tmp_path):
        rows = synthetic.generate_scene_rows(1, n_steps=25)
        for stem in ("eth", "ETH"):
            synthetic.write_scene_file(tmp_path / f"{stem}.txt", rows)
        with pytest.raises(DataError, match="both name scene ETH") as info:
            dd.load_dataset(tmp_path)
        assert str(tmp_path / "eth.txt") in str(info.value)
        assert str(tmp_path / "ETH.txt") in str(info.value)

    def test_single_scene_degenerate_split_warns(self, tmp_path, caplog):
        synthetic.write_scene_file(tmp_path / "eth.txt", synthetic.generate_scene_rows(1, n_steps=40))
        tables = dd.load_dataset(tmp_path)
        with caplog.at_level("WARNING", logger="sgcn.data"):
            split = dd.leave_one_out_split(tables, "ETH", 8, 12)
        assert split.train_scenes == []
        assert len(split.test_scenes) > 0
        assert any("no training scenes" in rec.message for rec in caplog.records)


class TestSyntheticDataset:
    def test_files_parse_and_window(self, tmp_path):
        paths = synthetic.write_dataset(tmp_path, n_steps=60)
        assert set(paths) == set(synthetic.SCENE_SEEDS)
        tables = dd.load_dataset(tmp_path)
        for table in tables.values():
            scenes = dd.window_scenes(table, 8, 12)
            assert scenes, table.name

    def test_text_round_trip_is_exact(self, tmp_path):
        rows = synthetic.generate_scene_rows(7, n_steps=30)
        path = tmp_path / "eth.txt"
        synthetic.write_scene_file(path, rows)
        table = dd.load_scene_file(path)
        want = np.array([[r[2], r[3]] for r in rows])
        order = np.lexsort((np.array([r[1] for r in rows]), np.array([r[0] for r in rows])))
        assert np.array_equal(table.xy, want[order])

    def test_generation_deterministic(self):
        assert synthetic.generate_scene_rows(3, n_steps=25) == synthetic.generate_scene_rows(3, n_steps=25)
