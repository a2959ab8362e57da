import hashlib
import json
import pathlib
import random
import time

import pytest

from plbc.allocate import allocate
from plbc.channel import ChannelParams
from plbc.cli import build_parser, main

GOLDEN_CANDIDATES = """\
# schema=plbc.candidates.v2
t0,l,r,d0,d1
0,0,100,0,21
1,10,90,3,19
2,20,80,5,17
3,30,70,7,15
4,40,60,9,13
5,50,50,11,11
6,60,40,13,9
7,70,30,15,7
8,80,20,17,5
9,90,10,19,3
10,100,0,21,0
"""

# Exact stdout of each emitting subcommand on the (15, 7) family at
# epsilon = 0.1, p = 0.02 (simulate: 1024 trials, seed 3, one thread);
# capacity uses the table2 preset and code, which writes JSON only, the
# l = 4 code with its matrices.
_CH = ["--epsilon", "0.1", "--p", "0.02"]
GOLDEN_ARGV = {
    "code": ["code", "--n", "15", "--k", "7", "--l", "4", "--matrices"],
    "candidates": ["candidates", "--n", "15", "--k", "7"],
    "capacity": ["capacity", "--preset", "table2"],
    "bound": ["bound", "--n", "15", "--k", "7", *_CH],
    "simulate": ["simulate", "--n", "15", "--k", "7", *_CH,
                 "--trials", "1024", "--seed", "3", "--threads", "1"],
    "allocate": ["allocate", "--n", "15", "--k", "7", *_CH, "--threads", "1"],
}
GOLDEN_OUTPUT = {
    ("code", "json"): """\
{
  "schema": "plbc.code.v1",
  "n": 15,
  "k": 7,
  "l": 4,
  "r": 4,
  "m": 4,
  "d0": 3,
  "d1": 3,
  "g_poly": "13",
  "p_poly": "f59",
  "gen_message": [
    "13",
    "26",
    "4c",
    "98",
    "130",
    "260",
    "4c0"
  ],
  "gen_mask": [
    "f59",
    "1eb2",
    "3d64",
    "7ac8"
  ],
  "parity": [
    "7591",
    "1eb2",
    "3d64",
    "7ac8"
  ],
  "msg_inverse": [
    "6b3",
    "48c",
    "f2",
    "1e4",
    "3c8",
    "123",
    "4f5"
  ]
}
""",
    ("candidates", "csv"): """\
# schema=plbc.candidates.v2
t0,l,r,d0,d1
0,0,8,0,5
1,4,4,3,3
2,8,0,5,0
""",
    ("candidates", "json"): """\
{
  "schema": "plbc.candidates.v2",
  "rows": [
    {
      "t0": 0,
      "l": 0,
      "r": 8,
      "d0": 0,
      "d1": 5
    },
    {
      "t0": 1,
      "l": 4,
      "r": 4,
      "d0": 3,
      "d1": 3
    },
    {
      "t0": 2,
      "l": 8,
      "r": 0,
      "d0": 5,
      "d1": 0
    }
  ]
}
""",
    ("capacity", "csv"): """\
# schema=plbc.capacity.v1
channel_id,epsilon,p,p_tilde,c_min,c_max
1,0,0.004,0.004,0.962377639678,0.962377639678
2,0.002,0.003,0.003994,0.962425406211,0.968594876259
3,0.003,0.0025,0.0039925,0.962437349883,0.971863769705
4,0.004,0.002,0.003992,0.962441331289,0.97526918495
5,0.006,0.001,0.003994,0.962425406211,0.982660688809
6,0.007,0.0005,0.0039965,0.962405501903,0.986839369119
7,0.008,0,0.004,0.962377639678,0.992
""",
    ("capacity", "json"): """\
{
  "schema": "plbc.capacity.v1",
  "rows": [
    {
      "channel_id": 1,
      "epsilon": 0.0,
      "p": 0.004,
      "p_tilde": 0.004,
      "c_min": 0.962377639678,
      "c_max": 0.962377639678
    },
    {
      "channel_id": 2,
      "epsilon": 0.002,
      "p": 0.003,
      "p_tilde": 0.003994,
      "c_min": 0.962425406211,
      "c_max": 0.968594876259
    },
    {
      "channel_id": 3,
      "epsilon": 0.003,
      "p": 0.0025,
      "p_tilde": 0.0039925,
      "c_min": 0.962437349883,
      "c_max": 0.971863769705
    },
    {
      "channel_id": 4,
      "epsilon": 0.004,
      "p": 0.002,
      "p_tilde": 0.003992,
      "c_min": 0.962441331289,
      "c_max": 0.97526918495
    },
    {
      "channel_id": 5,
      "epsilon": 0.006,
      "p": 0.001,
      "p_tilde": 0.003994,
      "c_min": 0.962425406211,
      "c_max": 0.982660688809
    },
    {
      "channel_id": 6,
      "epsilon": 0.007,
      "p": 0.0005,
      "p_tilde": 0.0039965,
      "c_min": 0.962405501903,
      "c_max": 0.986839369119
    },
    {
      "channel_id": 7,
      "epsilon": 0.008,
      "p": 0.0,
      "p_tilde": 0.004,
      "c_min": 0.962377639678,
      "c_max": 0.992
    }
  ]
}
""",
    ("bound", "csv"): """\
# schema=plbc.bound.v1
channel_id,epsilon,p,l,r,d0,d1,aw_method,bound_mask_fail,bound_maskok_fail,bound_total
0,0.1,0.02,0,8,0,5,none,0,0.0773497771481,0.0773497771481
0,0.1,0.02,4,4,3,3,binomial-approx,0.027832687395,0.0291208714062,0.0569535588011
0,0.1,0.02,8,0,5,0,binomial-approx,0.000139320178308,0.23849139549,0.238630715668
""",
    ("bound", "json"): """\
{
  "schema": "plbc.bound.v1",
  "rows": [
    {
      "channel_id": 0,
      "epsilon": 0.1,
      "p": 0.02,
      "l": 0,
      "r": 8,
      "d0": 0,
      "d1": 5,
      "aw_method": "none",
      "bound_mask_fail": 0.0,
      "bound_maskok_fail": 0.0773497771481,
      "bound_total": 0.0773497771481
    },
    {
      "channel_id": 0,
      "epsilon": 0.1,
      "p": 0.02,
      "l": 4,
      "r": 4,
      "d0": 3,
      "d1": 3,
      "aw_method": "binomial-approx",
      "bound_mask_fail": 0.027832687395,
      "bound_maskok_fail": 0.0291208714062,
      "bound_total": 0.0569535588011
    },
    {
      "channel_id": 0,
      "epsilon": 0.1,
      "p": 0.02,
      "l": 8,
      "r": 0,
      "d0": 5,
      "d1": 0,
      "aw_method": "binomial-approx",
      "bound_mask_fail": 0.000139320178308,
      "bound_maskok_fail": 0.23849139549,
      "bound_total": 0.238630715668
    }
  ]
}
""",
    ("simulate", "csv"): """\
# schema=plbc.simulate.v1
channel_id,epsilon,p,l,r,trials,mask_fails,dec_fails,rate,ci_lo,ci_hi,seed
0,0.1,0.02,0,8,1024,555,69,0.0673828125,0.0535892404419,0.0844101150068,3
0,0.1,0.02,4,4,1024,23,35,0.0341796875,0.0246775143918,0.0471637780439,3
0,0.1,0.02,8,0,1024,0,237,0.2314453125,0.206645700323,0.258252319425,3
""",
    ("simulate", "json"): """\
{
  "schema": "plbc.simulate.v1",
  "rows": [
    {
      "channel_id": 0,
      "epsilon": 0.1,
      "p": 0.02,
      "l": 0,
      "r": 8,
      "trials": 1024,
      "mask_fails": 555,
      "dec_fails": 69,
      "rate": 0.0673828125,
      "ci_lo": 0.0535892404419,
      "ci_hi": 0.0844101150068,
      "seed": 3
    },
    {
      "channel_id": 0,
      "epsilon": 0.1,
      "p": 0.02,
      "l": 4,
      "r": 4,
      "trials": 1024,
      "mask_fails": 23,
      "dec_fails": 35,
      "rate": 0.0341796875,
      "ci_lo": 0.0246775143918,
      "ci_hi": 0.0471637780439,
      "seed": 3
    },
    {
      "channel_id": 0,
      "epsilon": 0.1,
      "p": 0.02,
      "l": 8,
      "r": 0,
      "trials": 1024,
      "mask_fails": 0,
      "dec_fails": 237,
      "rate": 0.2314453125,
      "ci_lo": 0.206645700323,
      "ci_hi": 0.258252319425,
      "seed": 3
    }
  ]
}
""",
    ("allocate", "csv"): """\
# schema=plbc.allocate.v1
channel_id,l,r,d0,d1,metric,ci_lo,ci_hi,note,best
0,0,8,0,5,0.0773497771481,,,,0
0,4,4,3,3,0.0569535588011,,,,1
0,8,0,5,0,0.238630715668,,,,0
""",
    ("allocate", "json"): """\
{
  "schema": "plbc.allocate.v1",
  "reports": [
    {
      "channel_id": 0,
      "channel": {
        "epsilon": 0.1,
        "p": 0.02,
        "c_min": 0.641584675361,
        "c_max": 0.772703511712,
        "p_tilde": 0.068
      },
      "method": "bound",
      "candidates": [
        {
          "l": 0,
          "r": 8,
          "d0": 0,
          "d1": 5,
          "metric": 0.0773497771481
        },
        {
          "l": 4,
          "r": 4,
          "d0": 3,
          "d1": 3,
          "metric": 0.0569535588011
        },
        {
          "l": 8,
          "r": 0,
          "d0": 5,
          "d1": 0,
          "metric": 0.238630715668
        }
      ],
      "best_l": 4,
      "best_r": 4
    }
  ]
}
""",

}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("command,fmt", sorted(GOLDEN_OUTPUT))
def test_golden_output(capsys, command, fmt):
    fmt_args = [] if command == "code" else ["--format", fmt]
    rc, out, err = run_cli(capsys, *GOLDEN_ARGV[command], *fmt_args)
    assert rc == 0, err
    assert out == GOLDEN_OUTPUT[command, fmt]


# The paper's table2 sweep of the [1023, 923] code, byte for byte
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
TABLE2_GOLDEN_ARGV = {
    "allocate_table2.json": ["allocate", "--preset", "table2", "--format", "json"],
    "bound_table2.csv": ["bound", "--preset", "table2", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(TABLE2_GOLDEN_ARGV))
def test_table2_golden_output(tmp_path, name):
    out = tmp_path / name
    assert main([*TABLE2_GOLDEN_ARGV[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


# allocate --method simulation on a family whose rows are estimable, "not
# estimable" (no decoding failure), then estimable: the ci and note fields
SIMULATION_GOLDEN_ARGV = [
    "allocate", "--n", "15", "--k", "7", "--epsilon", "0.05", "--p", "0.001",
    "--method", "simulation", "--trials", "1024", "--seed", "3", "--threads", "1",
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulation_allocate_golden_output(tmp_path, fmt):
    name = "allocate_simulation.%s" % fmt
    out = tmp_path / name
    assert main([*SIMULATION_GOLDEN_ARGV, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


# `plbc code` stdout at three sizes, pinned by sha256 in code.sha256 (the CI
# entry-point step checks the same digests with sha256sum -c): every
# polynomial and, with --matrices, G1, G0, H and T bit for bit
CODE_DIGEST_ARGV = {
    "code-1023-923-20-matrices.json": ["1023", "923", "20", "--matrices"],
    "code-2047-1937-22-matrices.json": ["2047", "1937", "22", "--matrices"],
    "code-65535-65503-16.json": ["65535", "65503", "16"],
}


@pytest.mark.parametrize("name", sorted(CODE_DIGEST_ARGV))
def test_code_output_digest(capsys, name):
    digests = dict(reversed(line.split("  "))
                   for line in (GOLDEN_DIR / "code.sha256").read_text().splitlines())
    assert set(digests) == set(CODE_DIGEST_ARGV)
    n, k, l, *flags = CODE_DIGEST_ARGV[name]
    rc, out, err = run_cli(capsys, "code", "--n", n, "--k", k, "--l", l, *flags)
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digests[name]


def test_shared_parser_keeps_every_output(capsys):
    # main parses every argv with one parser: a usage error, then every
    # golden command in a shuffled order, must leave no state behind
    def help_texts(parse):
        texts = []
        for argv in (["--help"], ["allocate", "--help"]):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        return texts

    fresh_help = help_texts(build_parser.__wrapped__().parse_args)
    assert help_texts(main) == fresh_help
    with pytest.raises(SystemExit) as exc:
        main(["code", "--n", "15", "--k", "7"])  # --l is required
    assert exc.value.code == 2
    cases = sorted(GOLDEN_OUTPUT)
    random.Random(20261020).shuffle(cases)
    for command, fmt in cases:
        fmt_args = [] if command == "code" else ["--format", fmt]
        rc, out, err = run_cli(capsys, *GOLDEN_ARGV[command], *fmt_args)
        assert rc == 0, err
        assert out == GOLDEN_OUTPUT[command, fmt]
    assert build_parser() is build_parser()
    assert help_texts(main) == fresh_help


class TestCode:
    def test_descriptor(self, capsys):
        rc, out, _ = run_cli(capsys, "code", "--n", "15", "--k", "7", "--l", "4")
        assert rc == 0
        desc = json.loads(out)
        assert desc["schema"] == "plbc.code.v1"
        assert desc["d0"] == 3 and desc["d1"] == 3
        assert desc["g_poly"] == "13"

    def test_matrices_row_counts(self, capsys):
        argv = ["code", "--n", "15", "--k", "7", "--l", "4"]
        matrices = {"gen_message": 7, "gen_mask": 4, "parity": 4, "msg_inverse": 7}
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        desc = json.loads(out)
        assert set(desc) == {
            "schema", "n", "k", "l", "r", "m", "d0", "d1", "g_poly", "p_poly"
        }
        assert (desc["n"], desc["k"], desc["l"]) == (15, 7, 4)
        rc, out, _ = run_cli(capsys, *argv, "--matrices")
        assert rc == 0
        full = json.loads(out)
        assert {name: len(full[name]) for name in matrices} == matrices

    def test_n1023_candidate_l50(self, capsys):
        rc, out, _ = run_cli(capsys, "code", "--n", "1023", "--k", "923", "--l", "50")
        assert rc == 0
        desc = json.loads(out)
        assert desc["d0"] == 11 and desc["d1"] == 11

    def test_construction_error_exit3(self, capsys):
        rc, _, err = run_cli(capsys, "code", "--n", "1023", "--k", "923", "--l", "5")
        assert rc == 3
        assert "not a multiple of m=10" in err

    def test_usage_error_exit2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["code", "--n", "15", "--k", "7"])  # --l is required
        assert exc.value.code == 2


class TestCandidates:
    def test_golden_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "candidates", "--n", "1023", "--k", "923")
        assert rc == 0
        assert out == GOLDEN_CANDIDATES

    def test_small_family(self, capsys):
        rc, out, _ = run_cli(capsys, "candidates", "--n", "15", "--k", "7")
        assert rc == 0
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 3

    def test_indivisible_exit2(self, capsys):
        rc, _, err = run_cli(capsys, "candidates", "--n", "1023", "--k", "920")
        assert rc == 2
        assert "not a multiple" in err


class TestCapacity:
    def test_preset_rows(self, capsys):
        rc, out, _ = run_cli(capsys, "capacity", "--preset", "table2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# schema=plbc.capacity.v1"
        assert lines[1] == "channel_id,epsilon,p,p_tilde,c_min,c_max"
        assert len(lines) == 9
        for line in lines[2:]:
            c_min = float(line.split(",")[4])
            assert abs(c_min - 0.9624) < 5e-4

    def test_channel4_cmax(self, capsys):
        rc, out, _ = run_cli(capsys, "capacity", "--epsilon", "4e-3", "--p", "2e-3")
        row = out.strip().splitlines()[2].split(",")
        assert abs(float(row[5]) - 0.9753) < 5e-4

    def test_zero_channel(self, capsys):
        rc, out, _ = run_cli(capsys, "capacity", "--epsilon", "0", "--p", "0")
        row = out.strip().splitlines()[2].split(",")
        assert float(row[4]) == 1.0 and float(row[5]) == 1.0

    def test_preset_and_explicit_conflict(self, capsys):
        rc, _, err = run_cli(
            capsys, "capacity", "--preset", "table2", "--epsilon", "0.1", "--p", "0"
        )
        assert rc == 2

    def test_missing_channel_exit2(self, capsys):
        rc, _, err = run_cli(capsys, "capacity")
        assert rc == 2


class TestSimulate:
    def test_clean_channel(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0", "--p", "0", "--trials", "2048", "--seed", "1",
            "--threads", "1",
        )
        assert rc == 0
        row = out.strip().splitlines()[2].split(",")
        assert row[6] == "0" and row[7] == "0"

    def test_needs_trials(self, capsys):
        rc, _, err = run_cli(
            capsys, "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0", "--p", "0",
        )
        assert rc == 2
        assert "--trials" in err

    def test_same_seed_identical_output(self, capsys, tmp_path):
        argv = [
            "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0.2", "--p", "0.02", "--trials", "2048",
            "--seed", "7", "--threads", "1",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_same_stream_as_allocation(self, capsys):
        # both pick RNG stream t0 for a code, so they count the same trials
        rc, out, _ = run_cli(
            capsys, "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0.2", "--p", "0.02", "--trials", "2048", "--seed", "33",
            "--threads", "1", "--stop-after-failures", "0",
        )
        assert rc == 0
        row = out.strip().splitlines()[2].split(",")
        rep = allocate(15, 7, ChannelParams(0.2, 0.02), "simulation",
                       trials=2048, seed=33)
        sim = next(r.detail for r in rep.results if r.candidate.l == 4)
        want = [str(sim.trials), str(sim.masking_failures), str(sim.decoding_failures)]
        assert row[5:8] == want == ["2048", "293", "198"]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit2(self, capsys, threads):
        rc, out, err = run_cli(
            capsys, "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0", "--p", "0", "--trials", "64", "--threads", threads,
        )
        assert (rc, out) == (2, "")
        assert "threads must be positive" in err

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0.1", "--p", "0", "--trials", "1024", "--seed", "2",
            "--threads", "1", "--format", "json",
        )
        obj = json.loads(out)
        assert obj["schema"] == "plbc.simulate.v1"
        assert obj["rows"][0]["trials"] == 1024


class TestBound:
    def test_sweep_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--preset", "table2")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# schema=plbc.bound.v1"
        assert len(lines) == 2 + 11 * 7

    def test_single_candidate(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bound", "--l", "20", "--epsilon", "4e-3", "--p", "2e-3"
        )
        lines = out.strip().splitlines()
        assert len(lines) == 3
        row = lines[2].split(",")
        assert row[7] == "binomial-approx"
        assert 0 < float(row[10]) < 1

    def test_aw_method_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bound", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0.05", "--p", "0.01", "--aw", "exact",
        )
        row = out.strip().splitlines()[2].split(",")
        assert row[7] == "exact-enumeration"

    def test_infeasible_aw_exit2(self, capsys):
        rc, _, err = run_cli(
            capsys, "bound", "--l", "30", "--epsilon", "4e-3", "--p", "2e-3",
            "--aw", "exact",
        )
        assert rc == 2

    def test_epsilon_zero_needs_no_aw(self, capsys):
        # the epsilon = 0 bound has no masking term, so no A_w is fetched:
        # an A_w method that cannot run at this size does not matter
        rc, out, err = run_cli(
            capsys, "bound", "--n", "1023", "--k", "923", "--l", "20",
            "--epsilon", "0", "--p", "0.004", "--aw", "exact",
        )
        assert rc == 0, err
        row = out.strip().splitlines()[2].split(",")
        assert row[7] == "none"
        assert float(row[8]) == 0.0 and float(row[10]) > 0

    def test_m16_general_rows_within_budget(self, capsys):
        # the whole bound is a few array passes over u = 0..65535; about
        # 0.05 s on a 2-core host, so 5 s leaves room for slow hosts
        t0 = time.perf_counter()
        rc, out, err = run_cli(
            capsys, "bound", "--n", "65535", "--k", "65503", "--l", "16",
            "--epsilon", "0.3", "--p", "0.1",
        )
        elapsed = time.perf_counter() - t0
        assert rc == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert len(rows) == 1
        # only the general regime has a weight distribution and a masking term
        assert rows[0][7] == "binomial-approx" and float(rows[0][8]) > 0
        assert elapsed < 5.0

    def test_totals_equal_allocate(self, capsys):
        rc, out, err = run_cli(capsys, "bound", "--preset", "table2", "--format", "json")
        assert rc == 0, err
        bound = {(r["channel_id"], r["l"]): r["bound_total"]
                 for r in json.loads(out)["rows"]}
        rc, out, err = run_cli(
            capsys, "allocate", "--preset", "table2", "--format", "json"
        )
        assert rc == 0, err
        alloc = {(rep["channel_id"], c["l"]): c["metric"]
                 for rep in json.loads(out)["reports"] for c in rep["candidates"]}
        assert len(alloc) == 77
        assert bound == alloc


class TestAllocate:
    def test_boundary_eps_zero(self, capsys):
        rc, out, _ = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7",
            "--epsilon", "0", "--p", "0.01",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["reports"][0]["best_l"] == 0

    def test_boundary_p_zero(self, capsys):
        rc, out, _ = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7",
            "--epsilon", "0.3", "--p", "0",
        )
        obj = json.loads(out)
        assert obj["reports"][0]["best_l"] == 8
        assert obj["reports"][0]["best_r"] == 0

    def test_report_schema(self, capsys):
        rc, out, _ = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7",
            "--epsilon", "0.05", "--p", "0.01",
        )
        rep = json.loads(out)["reports"][0]
        assert set(rep) == {
            "channel_id", "channel", "method", "candidates", "best_l", "best_r"
        }
        assert rep["method"] == "bound"
        assert len(rep["candidates"]) == 3

    def test_report_keys_and_best(self, capsys):
        rc, out, err = run_cli(
            capsys, "allocate", "--n", "1023", "--k", "923",
            "--epsilon", "6e-3", "--p", "1e-3",
        )
        assert rc == 0, err
        rep = json.loads(out)["reports"][0]
        assert set(rep["channel"]) == {"epsilon", "p", "c_min", "c_max", "p_tilde"}
        assert (rep["best_l"], rep["best_r"]) == (30, 70)
        assert len(rep["candidates"]) == 11
        for entry in rep["candidates"]:
            assert set(entry) == {"l", "r", "d0", "d1", "metric"}

    def test_simulation_entries_have_ci(self, capsys):
        rc, out, err = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7", "--epsilon", "0.3",
            "--p", "0", "--method", "simulation", "--trials", "1024",
            "--seed", "3", "--threads", "1",
        )
        assert rc == 0, err
        rep = json.loads(out)["reports"][0]
        assert rep["method"] == "simulation"
        for entry in rep["candidates"]:
            lo, hi = entry["ci"]
            assert lo <= entry["metric"] <= hi
            # a candidate without failures has metric 0 and is flagged
            assert entry.get("note") == ("not estimable" if entry["metric"] == 0 else None)

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7",
            "--epsilon", "0.05", "--p", "0.01", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "# schema=plbc.allocate.v1"
        assert len(lines) == 5
        assert sum(line.endswith(",1") for line in lines[2:]) == 1

    def test_simulation_needs_trials(self, capsys):
        rc, _, err = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7",
            "--epsilon", "0.1", "--p", "0.01", "--method", "simulation",
        )
        assert rc == 2

    def test_n2047_by_bound(self, capsys):
        rc, out, err = run_cli(
            capsys, "allocate", "--n", "2047", "--k", "1937",
            "--epsilon", "4e-3", "--p", "2e-3",
        )
        assert rc == 0, err
        rep = json.loads(out)["reports"][0]
        assert len(rep["candidates"]) == 11
        assert all(c["metric"] > 0 for c in rep["candidates"])

    def test_table2_output_survives_cache_clear(self, tmp_path):
        from plbc import bounds

        argv = ["allocate", "--preset", "table2", "--threads", "1", "--out"]
        warm, cold = tmp_path / "warm.json", tmp_path / "cold.json"
        assert main(argv + [str(warm)]) == 0
        for memo in (bounds.weight_distribution, bounds._defect_logs,
                     bounds._log_binomial_masking_bound, bounds._tail_column,
                     bounds._log_tails):
            memo.cache_clear()
        assert main(argv + [str(cold)]) == 0
        assert warm.read_bytes() == cold.read_bytes()


class TestExitCodes:
    def test_unwritable_out_exit5(self, capsys, tmp_path):
        out = tmp_path / "missing-dir" / "alloc.json"
        rc, _, err = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7",
            "--epsilon", "0.05", "--p", "0.01", "--out", str(out),
        )
        assert rc == 5
        assert err.startswith("I/O error:")

    def test_overflow_exit4(self, capsys, monkeypatch):
        import plbc.cli

        def overflow(*args, **kwargs):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(plbc.cli, "allocate", overflow)
        rc, _, err = run_cli(
            capsys, "allocate", "--n", "15", "--k", "7",
            "--epsilon", "0.05", "--p", "0.01",
        )
        assert rc == 4
        assert err.startswith("numeric error:")

    @pytest.mark.parametrize("argv", [
        ["code", "--n", "15", "--k", "7", "--l", "4", "--m", "4"],
        ["candidates", "--n", "1023", "--k", "923", "--m", "10"],
        ["simulate", "--n", "15", "--k", "7", *_CH, "--trials", "64", "--m", "4"],
        ["bound", "--n", "15", "--k", "7", "--l", "4", "--m", "5",
         "--epsilon", "0.1", "--p", "0.01"],
        ["allocate", "--n", "15", "--k", "7", *_CH, "--m", "4"],
        ["code", "--n", "15", "--k", "7", "--l", "4", "--m"],
        ["allocate", "--n", "15", "--k", "7", "--epsilon", "0.1", "--p", "0.02",
         "--m", "simulation", "--trials", "64"],
        ["simulate", "--n", "15", "--k", "7", "--l", "4", *_CH, "--tri", "64"],
    ])
    def test_m_option_rejected_exit2(self, capsys, argv):
        # n alone fixes m, so no subcommand takes --m, matching or not; no
        # parser takes a prefix of a long option either, so --m is not read
        # as --matrices or --method, nor --tri as --trials
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --" in err


class TestSplitExistence:
    """Every command agrees on which splits exist (``PlbcParams``)."""

    def test_candidates_lists_buildable_splits(self, capsys):
        rc, out, err = run_cli(capsys, "candidates", "--n", "15", "--k", "3")
        assert rc == 0, err
        assert out.splitlines()[2:] == ["1,4,8,3,5", "2,8,4,5,3"]

    def test_no_buildable_split_exit3(self, capsys):
        rc, out, err = run_cli(
            capsys, "allocate", "--n", "255", "--k", "55",
            "--epsilon", "0.01", "--p", "0.01",
        )
        assert (rc, out) == (3, "")
        assert err.startswith("construction error: no (l, r) split")

    @pytest.mark.parametrize("channel", [
        ["--epsilon", "0.3", "--p", "0"],
        ["--epsilon", "0", "--p", "0.01", "--aw", "exact"],
    ])
    def test_bound_of_unbuildable_split_exit3(self, capsys, channel):
        rc, out, err = run_cli(
            capsys, "bound", "--n", "15", "--k", "3", "--l", "12", *channel
        )
        assert (rc, out) == (3, "")
        assert "mask-check degree 10 != l=12" in err

    def test_simulation_allocation_skips_unbuildable(self, capsys):
        rc, out, err = run_cli(
            capsys, "allocate", "--n", "15", "--k", "3", "--epsilon", "0.3",
            "--p", "0", "--method", "simulation", "--trials", "100",
            "--threads", "1",
        )
        assert rc == 0, err
        rep = json.loads(out)["reports"][0]
        assert [c["l"] for c in rep["candidates"]] == [4, 8]

    @pytest.mark.parametrize("argv", [
        ["candidates"],
        ["bound", *_CH],
        ["simulate", *_CH, "--trials", "64", "--threads", "1"],
        ["allocate", *_CH, "--threads", "1"],
    ])
    def test_k_above_n_exit2(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv, "--n", "15", "--k", "19")
        assert (rc, out) == (2, "")
        assert "k + l exceeds n" in err


    @pytest.mark.parametrize("k", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["candidates"],
        ["bound", *_CH],
        ["allocate", *_CH, "--threads", "1"],
    ])
    def test_k_below_one_exit2(self, capsys, argv, k):
        rc, out, err = run_cli(capsys, *argv, "--n", "15", "--k", k)
        assert (rc, out) == (2, "")
        assert "message length k must be >= 1" in err


class TestThreadsEnv:
    def test_env_override_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("PLBC_THREADS", "lots")
        rc, _, err = run_cli(
            capsys, "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0", "--p", "0", "--trials", "64",
        )
        assert rc == 2
        assert "PLBC_THREADS" in err

    def test_env_override_used(self, capsys, monkeypatch):
        monkeypatch.setenv("PLBC_THREADS", "1")
        rc, out, _ = run_cli(
            capsys, "simulate", "--n", "15", "--k", "7", "--l", "4",
            "--epsilon", "0", "--p", "0", "--trials", "64",
        )
        assert rc == 0
