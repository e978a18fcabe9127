"""Row-blocked temporaries: results equal to one block, and peaks bounded
by the inputs and outputs plus a few blocks."""

import codecs
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from otrelabel import (
    GroupedDataset,
    WeakLabelMatrix,
    accuracies_from_moments,
    lf_delta_report,
    moment_matrix,
)
from otrelabel import core, estimate, metrics, ot, pipeline, transport
from otrelabel.pipeline import (
    load_features_csv, load_votes_csv, write_votes_csv)

from helpers import knn_oracle

ONE_BLOCK = 1 << 40


def traced_peak(fn):
    """``fn()``'s result and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_votes(n, m, seed):
    rng = np.random.default_rng(seed)
    return WeakLabelMatrix(rng.choice([-1, 0, 1], p=[0.4, 0.2, 0.4],
                                      size=(n, m)))


def random_moments(m, seed, p_bad):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, m))
    a[rng.random((m, m)) < p_bad] = np.nan
    a = np.triu(a, 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0)
    return a


@pytest.fixture
def recorded_blocks(monkeypatch):
    """Every block list ``row_blocks`` hands to estimate, metrics and
    pipeline, and ``core.row_blocks`` to ot and transport, as (rows, block
    sizes)."""
    calls = []
    row_blocks = core.row_blocks

    def recording(n, row_bytes):
        blocks = row_blocks(n, row_bytes)
        calls.append((n, [len(range(n)[b]) for b in blocks]))
        return blocks
    for module in (core, estimate, metrics, pipeline):
        monkeypatch.setattr(module, "row_blocks", recording)
    return calls


def blocked_and_whole(monkeypatch, fn, budget):
    """``fn()`` under a ROW_BLOCK_BYTES of ``budget``, then in one block."""
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", budget)
    blocked = fn()
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", ONE_BLOCK)
    return blocked, fn()


def test_row_blocks_cover_every_row_once(monkeypatch):
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 100)
    for n in (1, 7, 8, 9, 25):
        for row_bytes in (1, 12, 13, 100, 101, 10**6):
            rows = np.concatenate([np.arange(n)[b]
                                   for b in core.row_blocks(n, row_bytes)])
            assert np.array_equal(rows, np.arange(n))
            step = max(1, 100 // row_bytes)
            assert all(len(range(n)[b]) <= step
                       for b in core.row_blocks(n, row_bytes))


# 25 rows at 8 rows a block: blocks of 8, 8, 8 and a one-row tail
N, M = 25, 5


def test_moment_matrix_in_blocks_equals_one_block(monkeypatch,
                                                  recorded_blocks):
    wl = random_votes(N, M, seed=1)
    blocked, whole = blocked_and_whole(
        monkeypatch, lambda: moment_matrix(wl), 8 * 8 * M)
    assert recorded_blocks[0] == (N, [8, 8, 8, 1])
    assert blocked.tobytes() == whole.tobytes()


def test_lf_delta_report_in_blocks_equals_one_block(monkeypatch,
                                                    recorded_blocks):
    before, after = random_votes(N, M, seed=2), random_votes(N, M, seed=3)
    rng = np.random.default_rng(4)
    ds = GroupedDataset(np.zeros((N, 1)), rng.integers(0, 2, N),
                        rng.choice([-1, 1], N))
    blocked, whole = blocked_and_whole(
        monkeypatch, lambda: json.dumps(lf_delta_report(before, after, ds),
                                        default=lambda r: r.to_dict()),
        8 * 2 * 8 * M)
    assert recorded_blocks[0] == (N, [8, 8, 8, 1])
    assert blocked == whole


def test_write_votes_csv_in_blocks_equals_one_block(monkeypatch, tmp_path,
                                                    recorded_blocks):
    wl = random_votes(N, M, seed=5)
    path = tmp_path / "v.csv"

    def written():
        write_votes_csv(wl, str(path))
        return path.read_bytes()
    blocked, whole = blocked_and_whole(monkeypatch, written, 8 * 9 * M)
    assert recorded_blocks[0] == (N, [8, 8, 8, 1])
    assert blocked == whole
    assert whole.splitlines()[1:] == [
        ",".join(map(str, row)).encode() for row in wl.votes.tolist()]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("budget", [16, 16 * 7, 16 * 40])
def test_load_votes_csv_in_blocks_equals_one_block(
        monkeypatch, tmp_path, newline, final_newline, budget):
    # a budget of 16 makes every nominal block one byte, so every line is
    # a block of its own, the last one too; a canonical file never falls
    # back to the exact pass, wherever a block ends
    def exact_pass(*args):
        raise AssertionError("canonical file went to the exact pass")

    monkeypatch.setattr(pipeline, "_read_rows", exact_pass)
    wl = random_votes(N, M, seed=6)
    lines = [",".join(f"lf_{j}" for j in range(M)).encode()] + [
        ",".join(map(str, row)).encode() for row in wl.votes.tolist()]
    path = tmp_path / "v.csv"
    path.write_bytes(newline.join(lines) + (newline if final_newline
                                            else b""))
    blocked, whole = blocked_and_whole(
        monkeypatch, lambda: load_votes_csv(str(path)).votes, budget)
    assert np.array_equal(blocked, wl.votes)
    assert np.array_equal(whole, wl.votes)
    assert not blocked.flags.writeable


@pytest.mark.parametrize("body", [b"1,0\n-0,1\n1,1\n",
                                  b"1,0\n1,1,\n1,1\n",
                                  b"1,0\n1,2\n1,1\n"])
def test_load_votes_csv_blocks_defer_a_bad_line_to_the_exact_pass(
        monkeypatch, tmp_path, body):
    path = tmp_path / "v.csv"
    path.write_bytes(b"lf_0,lf_1\n" + body)
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 16)
    with pytest.raises(pipeline.ValidationError, match="row 3"):
        load_votes_csv(str(path))


def test_write_pseudolabels_in_blocks_equals_one_block(monkeypatch,
                                                       tmp_path):
    rng = np.random.default_rng(7)
    probs = rng.choice([0.25, 0.5, -0.0, 0.0, 1 / 3], size=N)
    hard = np.where(probs >= 0.5, 1, -1)
    path = tmp_path / "p.csv"

    def written():
        pipeline._write_pseudolabels(str(path), probs, hard)
        return path.read_bytes()
    blocked, whole = blocked_and_whole(monkeypatch, written, 128 * 8)
    assert blocked == whole
    assert whole.decode().splitlines()[1:] == [
        f"{p!r},{h}" for p, h in zip(probs.tolist(), hard.tolist())]


@pytest.mark.parametrize("k", [1, 5])
def test_knn_transfer_in_blocks_equals_one_block(monkeypatch, k,
                                                 recorded_blocks):
    # above transport._TREE_MAX_D every row takes the exact scan; a budget
    # of one destination row's distances makes each query row a block
    rng = np.random.default_rng(12)
    n_query, n_dst, d = 7, 40, 16
    query, dst = rng.normal(size=(n_query, d)), rng.normal(size=(n_dst, d))
    votes = rng.choice([-1, 0, 1], size=n_dst)
    blocked, whole = blocked_and_whole(
        monkeypatch, lambda: transport.knn_transfer(query, dst, votes, k),
        8 * n_dst)
    assert recorded_blocks == [(n_query, [1] * n_query), (n_query, [n_query])]
    expected = knn_oracle(query, dst, votes, k)
    assert np.array_equal(blocked, expected)
    assert np.array_equal(whole, expected)


@pytest.mark.parametrize("workers,heights", [(1, [8, 8, 8, 1]),
                                             (3, [2] * 12 + [1])])
@pytest.mark.parametrize("eta,dtype", [(1.0, np.float32),
                                       (0.05, np.float64)])
def test_sinkhorn_kernel_in_blocks_equals_one_block(
        monkeypatch, eta, dtype, workers, heights, recorded_blocks):
    # a budget of 8 rows builds the kernel in blocks of 8, 8, 8 and 1 on
    # one worker, and of 2 rows on each of 3; at eta 0.05 a block is past
    # float32's range and the kernel is rebuilt
    monkeypatch.setattr(core, "_workers", lambda: workers)
    rng = np.random.default_rng(13)
    X_src, X_dst = rng.normal(size=(N, 3)), rng.normal(size=(40, 3)) + 0.5
    blocked, whole = blocked_and_whole(
        monkeypatch, lambda: ot._kernel(X_src, X_dst, eta), 8 * 8 * 40)
    assert recorded_blocks == [(N, heights), (N, [N])]
    assert blocked.dtype == whole.dtype == dtype
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("eta,dtype", [(1.0, np.float32),
                                       (0.05, np.float64)])
def test_sinkhorn_projection_takes_the_same_blocks_in_both_dtypes(
        monkeypatch, eta, dtype, recorded_blocks):
    # on 3 workers the kernel is built in blocks of 2 rows; the projection
    # then widens K in blocks of 8, 8, 8 and 1 on one thread, whatever
    # K's dtype
    monkeypatch.setattr(core, "_workers", lambda: 3)
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 8 * 8 * 40)
    rng = np.random.default_rng(13)
    X_src, X_dst = rng.normal(size=(N, 3)), rng.normal(size=(40, 3)) + 0.5
    assert ot._kernel(X_src, X_dst, eta).dtype == dtype
    recorded_blocks.clear()
    projected, _, _ = ot._sinkhorn_projection(X_src, X_dst, eta, 50)
    assert recorded_blocks == [(N, [2] * 12 + [1]), (N, [8, 8, 8, 1])]
    assert projected.shape == (N, 3) and np.isfinite(projected).all()


# every framing the plain loaders read in place
FRAMINGS = {"lf": (b"\n", b""), "lf-bom": (b"\n", codecs.BOM_UTF8),
            "crlf": (b"\r\n", b""), "crlf-bom": (b"\r\n", codecs.BOM_UTF8)}


def write_framed(path, lines, framing):
    eol, bom = FRAMINGS[framing]
    path.write_bytes(bom + eol.join(line.encode() for line in lines) + eol)


def features_lines(n, seed):
    """A header and n rows of 4 features, a group and a label, with the
    arrays they hold."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    groups, labels = rng.integers(0, 2, n), rng.choice([-1, 1], n)
    return (["x0,x1,x2,x3,group,label"] + [
        ",".join(map(repr, row)) + f",{g},{y}"
        for row, g, y in zip(x.tolist(), groups.tolist(), labels.tolist())],
        x, groups, labels)


def votes_lines(votes):
    return [",".join(f"lf_{j}" for j in range(votes.shape[1]))] + [
        ",".join(map(str, row)) for row in votes.tolist()]


@pytest.mark.parametrize("framing", list(FRAMINGS))
@pytest.mark.parametrize("n", [40, 400])
def test_a_fault_in_the_last_block_gets_the_exact_pass(monkeypatch, tmp_path,
                                                       framing, n):
    # 256-byte blocks: every block before the last is plain, and the loader
    # falls back to the exact pass through the handle it opened, whose
    # report is the whole file's, with row numbers and byte offsets intact
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 256)
    opened, exact, parsed = [], [], []
    real_open, read_rows = open, pipeline._read_rows
    plain_table, plain_votes = pipeline._plain_table, pipeline._plain_votes
    monkeypatch.setattr(pipeline, "open", lambda path, *args: (
        opened.append(path) or real_open(path, *args)), raising=False)
    monkeypatch.setattr(pipeline, "_read_rows", lambda path, data: (
        exact.append(path) or read_rows(path, data)))
    monkeypatch.setattr(pipeline, "_plain_table", lambda data, *args: (
        parsed.append(data) or plain_table(data, *args)))
    monkeypatch.setattr(pipeline, "_plain_votes", lambda data, m: (
        parsed.append(data) or plain_votes(data, m)))
    lines, x, _, _ = features_lines(n, seed=n)
    votes = np.random.default_rng(n).choice([-1, 0, 1], size=(n, 3))
    row = n + 1  # the last row's number; the header is row 1
    cases = [
        (load_features_csv, lines, "oops,0.5,0.5,0.5,1,1",
         f"row {row}, column 'x0': non-numeric value 'oops'"),
        (load_features_csv, lines, "nan,0.5,0.5,0.5,1,1",
         f"row {row}, column 'x0': non-finite value nan"),
        (load_features_csv, lines, "0.5,0.5,0.5,0.5,2,1",
         f"row {row}: unknown group value '2'"),
        (load_features_csv, lines, '"0.25",0.5,0.5,0.5,1,1', None),
        (load_features_csv, lines, "\xa00.25,0.5,0.5,0.5,1,1", None),
        (load_votes_csv, votes_lines(votes), "1,2,0",
         f"row {row}, lf_1: illegal vote '2'"),
        (load_votes_csv, votes_lines(votes), '1,"-1",0', None),
        (load_votes_csv, votes_lines(votes), "1,\xa0-1,0", None),
    ]
    for load, lines, last, message in cases:
        path = tmp_path / "in.csv"
        write_framed(path, lines[:-1] + [last], framing)
        opened.clear(), exact.clear(), parsed.clear()
        if message is None:
            got = load(str(path))
            if load is load_votes_csv:
                assert np.array_equal(
                    got.votes, np.vstack([votes[:-1], [[1, -1, 0]]]))
            else:
                assert np.array_equal(got.features[:-1], x[:-1])
                assert got.features[-1].tolist() == [0.25, 0.5, 0.5, 0.5]
        else:
            with pytest.raises(pipeline.ValidationError) as info:
                load(str(path))
            assert str(info.value) == f"{path}: {message}"
        assert opened == exact == [str(path)]
        # the plain pass read every block of the body, the last one too
        body = path.read_bytes().split(FRAMINGS[framing][0], 1)[1]
        assert len(parsed) > 1 and b"".join(parsed) == body


@pytest.mark.parametrize("framing", list(FRAMINGS))
def test_a_byte_that_is_not_utf8_in_the_last_block_is_named(
        monkeypatch, tmp_path, framing):
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 256)
    lines, _, _, _ = features_lines(200, seed=1)
    path = tmp_path / "f.csv"
    write_framed(path, lines, framing)
    data = path.read_bytes()
    offset = data.rindex(b"1")  # the last row's label, -1 or 1
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    with pytest.raises(pipeline.ValidationError) as info:
        load_features_csv(str(path))
    assert str(info.value) == (
        f"{path}: byte {offset} (0xff) is not UTF-8: invalid start byte")


@pytest.mark.parametrize("row_bytes", [1, 16])
@pytest.mark.parametrize("end", [b"", b"\n"])
def test_line_blocks_run_to_the_end_of_their_last_byte_s_line(
        monkeypatch, tmp_path, end, row_bytes):
    # 16-byte blocks, ROW_BLOCK_BYTES // row_bytes: lines that end on,
    # before and past a block's last byte, a line longer than a block, and
    # a last line with and without its line end
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 16 * row_bytes)
    data = b"\n".join([b"h,h", b"1", b"22", b"x" * 40, b"333", b"4" * 15,
                       b"5" * 14, b"6" * 16, b"7"]) + end
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        blocks = list(pipeline._line_blocks(fh, sha, row_bytes))
    assert blocks[0] == b"h,h\n"
    assert b"".join(blocks) == data
    assert sha.hexdigest() == hashlib.sha256(data).hexdigest()
    start = len(blocks[0])
    for block in blocks[1:]:
        stop = data.find(b"\n", start + 15) + 1 or len(data)
        assert block == data[start:stop]
        start = stop


@pytest.fixture(scope="module", params=[4000, 32000])
def streamed_inputs(request, tmp_path_factory):
    """Features and votes lines of n rows, n a factor 8 apart, with the
    arrays they hold."""
    n = request.param
    lines, x, groups, labels = features_lines(n, seed=n)
    votes = np.random.default_rng(n).choice([-1, 0, 1], size=(n, 60))
    return lines, x, votes_lines(votes), votes


@pytest.mark.parametrize("framing", list(FRAMINGS))
def test_loaders_peak_at_their_output_plus_a_few_blocks(
        tmp_path, streamed_inputs, framing):
    # neither loader holds its file: each block of lines is read once, in
    # place, then parsed and appended to an output that grows in place,
    # whatever the file's size (at most 3.5 blocks were measured for
    # features and 0.6 for votes, whose blocks are 1/16 of a block)
    f_lines, x, v_lines, votes = streamed_inputs
    features, votes_path = tmp_path / "f.csv", tmp_path / "v.csv"
    write_framed(features, f_lines, framing)
    write_framed(votes_path, v_lines, framing)
    ds, peak = traced_peak(lambda: load_features_csv(str(features)))
    assert np.array_equal(ds.features, x)
    output = ds.features.nbytes + ds.groups.nbytes + ds.labels.nbytes
    assert features.stat().st_size > output
    assert peak <= output + 4 * core.ROW_BLOCK_BYTES
    wl, peak = traced_peak(lambda: load_votes_csv(str(votes_path)))
    assert np.array_equal(wl.votes, votes)
    assert votes_path.stat().st_size > 2 * wl.votes.nbytes
    assert peak <= wl.votes.nbytes + core.ROW_BLOCK_BYTES


# --------------------------------------------------------------------------
# peaks


def test_accuracies_from_moments_holds_no_triplet_table():
    m = 164
    moments = random_moments(m, seed=8, p_bad=0.02)
    (est, records), peak = traced_peak(
        lambda: accuracies_from_moments(moments))
    assert peak <= 2 * 2**20  # the C(164, 3) x 3 tables take 34 MiB
    assert ((est >= 0) & (est <= 1)).all()
    n_triplets, peak = traced_peak(lambda: len(records))
    assert n_triplets == math.comb(m, 3)
    assert peak < 4096
    assert "_tables" not in vars(records)


@pytest.fixture(scope="module")
def wide_votes():
    """20k x 60 votes: 1.1 MiB as int8, 37 blocks of 256 KiB as float64."""
    return random_votes(20_000, 60, seed=9)


def test_moment_matrix_peak_is_two_blocks(wide_votes):
    moments, peak = traced_peak(lambda: moment_matrix(wide_votes))
    assert peak <= moments.nbytes + 2 * core.ROW_BLOCK_BYTES


def test_lf_delta_report_peak_is_two_blocks(wide_votes):
    rng = np.random.default_rng(10)
    ds = GroupedDataset(np.zeros((wide_votes.n, 1)),
                        rng.integers(0, 2, wide_votes.n),
                        rng.choice([-1, 1], wide_votes.n))
    # the report rows are Python objects, counted in the peak
    _, peak = traced_peak(lambda: lf_delta_report(wide_votes, wide_votes,
                                                  ds))
    assert peak <= 2 * core.ROW_BLOCK_BYTES


def test_write_votes_csv_peak_is_two_blocks(wide_votes, tmp_path):
    path = str(tmp_path / "v.csv")
    _, peak = traced_peak(lambda: write_votes_csv(wide_votes, path))
    assert peak <= 2 * core.ROW_BLOCK_BYTES


def test_load_votes_csv_peak_is_votes_and_body_plus_two_blocks(
        wide_votes, tmp_path):
    path = tmp_path / "v.csv"
    write_votes_csv(wide_votes, str(path))
    wl, peak = traced_peak(lambda: load_votes_csv(str(path)))
    assert np.array_equal(wl.votes, wide_votes.votes)
    assert peak <= (wl.votes.nbytes + path.stat().st_size
                    + 2 * core.ROW_BLOCK_BYTES)


def test_load_crlf_votes_csv_peak_is_the_lf_files_bound(wide_votes, tmp_path):
    # the bytes are read once, in place: the \r bytes are dropped one block
    # at a time, never by a copy of the whole file
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_votes_csv(wide_votes, str(lf))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    wl, peak = traced_peak(lambda: load_votes_csv(str(crlf)))
    assert np.array_equal(wl.votes, wide_votes.votes)
    assert peak <= (wl.votes.nbytes + lf.stat().st_size
                    + 2 * core.ROW_BLOCK_BYTES)


def test_passthrough_repair_peak_is_the_votes_and_their_float_cast():
    # the int8 votes, n * m bytes, are built before the peak is reset;
    # after them every temporary is a row block or an n- or m-vector: the
    # posterior widens the votes one row block at a time, with no float cast
    rng = np.random.default_rng(15)
    n, m = 5000, 60
    y = rng.choice([-1, 1], n)
    raw = np.where(rng.random((n, m)) < 0.3, -y[:, None], y[:, None])
    raw[rng.random((n, m)) < 0.1] = 0
    ds = GroupedDataset(rng.normal(size=(n, 2)) + y[:, None],
                        rng.integers(0, 2, n), y)
    tracemalloc.start()
    try:
        wl = WeakLabelMatrix(raw)
        tracemalloc.reset_peak()
        run = pipeline.repair(ds, wl, core.PipelineConfig(), passthrough=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.repaired.votes.nbytes == n * m
    assert peak <= n * m + 3 * core.ROW_BLOCK_BYTES


def test_weak_label_matrix_of_int64_votes_peaks_at_two_masks():
    # one mask of the allowed values and one comparison at a time: the
    # int8 copy (n * m bytes) and two n x m boolean masks
    rng = np.random.default_rng(15)
    n, m = 5000, 60
    raw = rng.choice([-1, 0, 1], size=(n, m))
    wl, peak = traced_peak(lambda: WeakLabelMatrix(raw))
    assert wl.votes.dtype == np.int8
    assert peak <= 3 * n * m + core.ROW_BLOCK_BYTES


def test_exact_knn_scan_peak_is_the_output_plus_three_blocks():
    # a block's distances, and _rank's partition of them, are the only
    # n_dst-wide temporaries
    rng = np.random.default_rng(14)
    query, dst = rng.normal(size=(300, 16)), rng.normal(size=(2000, 16))
    nbrs, peak = traced_peak(lambda: transport._nearest_exact(query, dst, 5))
    assert nbrs.shape == (300, 5)
    assert peak <= nbrs.nbytes + 3 * core.ROW_BLOCK_BYTES


@pytest.mark.parametrize("k", [5, 50])
def test_exact_knn_scan_of_a_fully_tied_block_peaks_under_six_blocks(k):
    # every distance ties at the k-th, so _rank sorts whole blocks: their
    # entries' indices, distances and rows and the sort order beside them
    query, dst = np.zeros((300, 12)), np.zeros((2000, 12))
    nbrs, peak = traced_peak(lambda: transport._nearest_exact(query, dst, k))
    assert np.array_equal(nbrs, np.broadcast_to(np.arange(k), (300, k)))
    assert peak <= nbrs.nbytes + 6 * core.ROW_BLOCK_BYTES


@pytest.mark.parametrize("k", [1, 5])
def test_knn_of_heavily_repeated_rows_peaks_under_four_blocks(k):
    # two one-hot features of 5 skewed levels: nearly every row ties, and
    # the few distinct ones are ranked once each over their candidates
    rng = np.random.default_rng(16)
    levels = np.eye(5)[rng.choice(5, size=(2000, 2),
                                  p=[0.5, 0.25, 0.125, 0.0625, 0.0625])]
    points = levels.reshape(2000, 10)
    query, dst = points[:1000], points[1000:]
    nbrs, peak = traced_peak(lambda: transport._nearest(query, dst, k))
    assert np.array_equal(nbrs, transport._nearest_exact(query, dst, k))
    assert peak <= nbrs.nbytes + 4 * core.ROW_BLOCK_BYTES


def test_candidate_blocks_close_at_the_byte_bound(monkeypatch):
    # 12 distances a block; a union counts as the sum of its rows'
    # candidate counts, at most the 10 destination rows
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 8 * 12)
    cands = [[0, 1], [1, 2], [2, 3], [0, 1, 2, 3, 4], [5], [6],
             list(range(10)) * 2]
    assert transport._candidate_blocks(cands, 10) == [
        slice(0, 2), slice(2, 3), slice(3, 5), slice(5, 6), slice(6, 7)]
    assert transport._candidate_blocks([], 10) == []


def test_candidate_blocks_hold_more_rows_than_scan_blocks(monkeypatch):
    # integer features of 10 levels: most rows tie, and each is ranked
    # over a handful of candidates, not over every destination row
    rng = np.random.default_rng(17)
    query = rng.integers(0, 10, size=(1500, 6)).astype(float)
    dst = rng.integers(0, 10, size=(1500, 6)).astype(float)
    seen = []
    real = transport._nearest_exact

    def recording(X_query, X_dst, k, cands=None):
        seen.append(cands)
        return real(X_query, X_dst, k, cands)

    monkeypatch.setattr(transport, "_nearest_exact", recording)
    nbrs = transport._nearest(query, dst, 5)
    assert np.array_equal(nbrs, real(query, dst, 5))
    (cands,) = seen
    blocks = transport._candidate_blocks(cands, 1500)
    rows = np.arange(len(cands))
    assert np.array_equal(np.concatenate([rows[b] for b in blocks]), rows)
    for block in blocks:
        width = len(np.unique(np.concatenate(cands[block])))
        assert len(rows[block]) == 1 \
            or 8 * len(rows[block]) * width <= core.ROW_BLOCK_BYTES
    assert 3 * len(blocks) < len(core.row_blocks(len(cands), 8 * 1500))


def test_records_are_counted_the_way_the_bench_counts_them():
    m = 9
    moments = random_moments(m, seed=11, p_bad=0.15)
    _, records = accuracies_from_moments(moments)
    assert len(records) == len(records.degenerate) == math.comb(m, 3)
    assert sum(r.degenerate for r in records) == records.degenerate.sum() > 0
