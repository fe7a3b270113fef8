import json
import subprocess
import sys

import numpy as np
import pytest

from rmpsc.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_anchor_128_60(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--imin", "27", "--n", "7", "--absorption"], capsys
        )
        assert code == 0
        assert "K: 60" in out
        assert "equivalent_classes: 2205" in out
        assert err.startswith("# config")

    def test_json_matches_human(self, capsys):
        code, human, _ = run_cli(["analyze", "--imin", "19", "--n", "6"], capsys)
        assert code == 0
        code, js, _ = run_cli(["analyze", "--imin", "19", "--n", "6", "--json"], capsys)
        assert code == 0
        payload = json.loads(js)
        assert payload["K"] == 37
        assert payload["symmetry"] == 2
        for key, value in payload.items():
            assert f"{key}: {value}" in human

    def test_rate_one_flagged(self, capsys):
        code, out, _ = run_cli(["analyze", "--imin", "0", "--n", "3", "--json"], capsys)
        payload = json.loads(out)
        assert payload["K"] == 8
        assert payload["rate_one"] is True
        assert payload["extreme_dimension"] is True

    def test_length_one_code(self, capsys):
        # n = 0: no variables, so no blocks, a group of order 1 and one class
        code, out, _ = run_cli(
            ["analyze", "--imin", "0", "--n", "0", "--absorption", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["N"], payload["K"], payload["symmetry"]) == (1, 1, 0)
        assert payload["blta_structure"] == payload["absorption_structure"] == []
        assert payload["blta_size"] == payload["equivalent_classes"] == 1

    def test_spec_file_input(self, tmp_path, capsys):
        from rmpsc.codes import CodeSpec

        path = tmp_path / "code.json"
        CodeSpec.from_i_min({19}, 6).save(path)
        code, out, _ = run_cli(["analyze", "--spec", str(path), "--json"], capsys)
        assert json.loads(out)["K"] == 37

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"n": 6}', 'fields "n" and "i_min"'),
            ('[6, 19]', 'fields "n" and "i_min"'),
            ('{"n": 6, "i_min": 19}', '"i_min" must be a list of integers'),
            ('{"n": 6, "i_min": [19.7]}', '"i_min" must be a list of integers'),
            ('{"n": "6", "i_min": [19]}', '"n" must be an integer'),
            ('{"n": -1, "i_min": [0]}', "n must be non-negative, got -1"),
        ],
        ids=["no_i_min", "array", "scalar_i_min", "float_i_min", "string_n", "negative_n"],
    )
    def test_malformed_spec_file(self, tmp_path, capsys, spec, message):
        path = tmp_path / "code.json"
        path.write_text(spec)
        code, out, err = run_cli(["analyze", "--spec", str(path)], capsys)
        assert code == 1
        assert out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and message in last

    def test_missing_code_args(self, capsys):
        code, _, err = run_cli(["analyze"], capsys)
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--imin", "27", "--n", "7", "--bogus"])
        assert exc.value.code == 2


class TestSearch:
    def test_atlas_n4(self, capsys):
        code, out, _ = run_cli(["search", "--n", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,K,max_t,i_min,blta_structure,absorption_structure"
        assert len(lines) == 1 + (11 - 5 + 1)
        for line in lines[1:]:
            assert line.startswith("16,")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["search", "--n", "4", "--seed", "3", "--out", str(a)]) == 0
        assert main(["search", "--n", "4", "--seed", "3", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_reliability_file_accepted(self, tmp_path, capsys):
        from rmpsc.codes import beta_expansion_reliability

        rel = beta_expansion_reliability(4)
        path = tmp_path / "rel.txt"
        path.write_text("".join(f"{i}\n" for i in rel.order))
        code, out, _ = run_cli(["search", "--n", "4", "--rel", str(path)], capsys)
        assert code == 0
        assert out.count("\n") == 8

    def test_reliability_file_wrong_length(self, tmp_path, capsys):
        path = tmp_path / "rel.txt"
        path.write_text("".join(f"{i}\n" for i in range(8)))
        code, _, err = run_cli(["search", "--n", "4", "--rel", str(path)], capsys)
        assert code == 1
        assert "error:" in err


class TestSimulate:
    def test_csv_shape_and_tub(self, tmp_path, capsys):
        out = tmp_path / "fer.csv"
        code = main(
            [
                "simulate", "--imin", "11", "--n", "5", "--dec", "sc",
                "--ebn0", "1:3:1", "--max-trials", "500",
                "--target-errors", "500", "--seed", "2", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ebn0_db,trials,errors,fer,ci95,tub"
        assert len(lines) == 4

    def test_tub_beyond_weight_walks(self, tmp_path, capsys):
        # (128,60) is too large for either codeword walk; the closed-form
        # multiplicity 33048 still gives the bound column
        out = tmp_path / "fer.csv"
        code = main(
            [
                "simulate", "--imin", "27", "--n", "7", "--ebn0", "3",
                "--max-trials", "64", "--target-errors", "64", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == "ebn0_db,trials,errors,fer,ci95,tub"
        from rmpsc.channel import tub_ml_bound

        assert float(row.split(",")[-1]) == pytest.approx(tub_ml_bound(16, 33048, 60 / 128, 3.0))

    def test_ae_m1_equals_sc(self, tmp_path, capsys):
        sc, ae = tmp_path / "sc.csv", tmp_path / "ae.csv"
        base = [
            "simulate", "--imin", "11", "--n", "5", "--ebn0", "2:2:1",
            "--max-trials", "400", "--target-errors", "400", "--seed", "5",
        ]
        assert main(base + ["--dec", "sc", "--out", str(sc)]) == 0
        assert main(base + ["--dec", "ae", "--m", "1", "--out", str(ae)]) == 0
        capsys.readouterr()
        assert sc.read_bytes() == ae.read_bytes()

    def test_perm_replay_logged(self, tmp_path, capsys):
        out = tmp_path / "fer.csv"
        code = main(
            [
                "simulate", "--imin", "11", "--n", "5", "--dec", "ae", "--m", "2",
                "--ebn0", "2:2:1", "--max-trials", "200",
                "--target-errors", "200", "--seed", "1", "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        replay = tmp_path / "fer.perms.txt"
        assert replay.exists()
        from rmpsc.autgroup import load_permutations

        perms = load_permutations(replay, 32)
        assert len(perms) == 2
        assert np.array_equal(perms[0].perm, np.arange(32))

    def test_perms_replay_is_byte_identical(self, tmp_path, capsys):
        base = ["simulate", "--n", "6", "--imin", "19", "--dec", "ae", "--seed", "1"]
        logged, replayed = tmp_path / "logged.csv", tmp_path / "replayed.csv"
        assert main(base + ["--m", "4", "--out", str(logged)]) == 0
        perms = logged.with_suffix(".perms.txt")
        assert main(base + ["--perms", str(perms), "--out", str(replayed)]) == 0
        # an explicit --m that agrees with the file is accepted
        again = tmp_path / "again.csv"
        assert main(base + ["--m", "4", "--perms", str(perms), "--out", str(again)]) == 0
        capsys.readouterr()
        assert replayed.read_bytes() == logged.read_bytes() == again.read_bytes()
        assert replayed.with_suffix(".perms.txt").read_bytes() == perms.read_bytes()

    def test_perms_replay_rejects_bad_files(self, tmp_path, capsys):
        from rmpsc.autgroup import Permutation, is_code_automorphism, save_permutations
        from rmpsc.codes import CodeSpec

        code = CodeSpec.from_i_min((19,), 6)
        swap = np.arange(64)
        swap[[0, 1]] = [1, 0]
        assert not is_code_automorphism(Permutation(swap), code)
        files = {}
        for name, perms in (
            ("not-automorphism", [np.arange(64), swap]),
            ("two", [np.arange(64), np.arange(64)]),
        ):
            files[name] = tmp_path / f"{name}.txt"
            save_permutations(perms, files[name])
        files["short"] = tmp_path / "short.txt"
        files["short"].write_text("".join(f"{v}\n" for v in range(63)))
        files["repeated"] = tmp_path / "repeated.txt"
        files["repeated"].write_text("0\n" * 64)
        files["empty"] = tmp_path / "empty.txt"
        files["empty"].write_text("")
        base = [
            "simulate", "--n", "6", "--imin", "19", "--ebn0", "2",
            "--max-trials", "100", "--target-errors", "10",
        ]
        for name, extra, message in (
            ("not-automorphism", [], "not an automorphism"),
            ("short", [], "not a multiple"),
            ("repeated", [], "not a permutation"),
            ("empty", [], "no permutation"),
            ("two", ["--m", "3"], "disagrees"),
            ("two", ["--dec", "sc"], "--dec ae"),
        ):
            out = tmp_path / f"{name}.csv"
            dec = [] if "--dec" in extra else ["--dec", "ae"]
            code, stdout, err = run_cli(
                base + dec + extra + ["--perms", str(files[name]), "--out", str(out)], capsys
            )
            assert code == 1, name
            assert err.splitlines()[-1].startswith("error:") and message in err, name
            assert not out.exists() and not out.with_suffix(".perms.txt").exists(), name

    def test_m_exceeding_classes_fails(self, capsys):
        code, _, err = run_cli(
            [
                "simulate", "--imin", "3", "--n", "2", "--dec", "ae", "--m", "100",
                "--ebn0", "2:2:1", "--max-trials", "100", "--target-errors", "100",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_ae_length_one_code(self, tmp_path, capsys):
        sc, ae = tmp_path / "sc.csv", tmp_path / "ae.csv"
        base = [
            "simulate", "--imin", "0", "--n", "0", "--ebn0", "0:2:1",
            "--max-trials", "300", "--target-errors", "300", "--seed", "2",
        ]
        assert main(base + ["--dec", "sc", "--out", str(sc)]) == 0
        assert main(base + ["--dec", "ae", "--m", "1", "--out", str(ae)]) == 0
        capsys.readouterr()
        assert sc.read_bytes() == ae.read_bytes()
        assert (tmp_path / "ae.perms.txt").read_text() == "0\n"
        code, _, err = run_cli(base + ["--dec", "ae", "--m", "2"], capsys)
        assert code == 1
        assert "only 1" in err

    def test_zero_workers_fails(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "simulate", "--imin", "11", "--n", "5", "--ebn0", "1:1:1",
                "--max-trials", "100", "--target-errors", "10", "--workers", "0",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        # rejected before the AE permutations are sampled and logged
        out = tmp_path / "ae.csv"
        code, _, err = run_cli(
            [
                "simulate", "--imin", "19", "--n", "6", "--dec", "ae", "--m", "4",
                "--max-trials", "100", "--target-errors", "10", "--workers", "0",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert not out.with_suffix(".perms.txt").exists()

    @pytest.mark.parametrize("grid", ["nan", "inf", "-inf", "1,inf", "0:inf:1", "nan:3:1"])
    def test_nonfinite_ebn0_exits_2(self, tmp_path, capsys, grid):
        # a usage error, raised before the AE permutations are sampled
        out = tmp_path / "ae.csv"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate", "--imin", "19", "--n", "6", "--dec", "ae", "--m", "4",
                    f"--ebn0={grid}", "--max-trials", "100", "--target-errors", "10",
                    "--out", str(out),
                ]
            )
        assert exc.value.code == 2
        assert "--ebn0" in capsys.readouterr().err
        assert not out.with_suffix(".perms.txt").exists()

    @pytest.mark.parametrize(
        "text, points",
        [
            ("1:4:1", (1.0, 2.0, 3.0, 4.0)),
            ("0:1:0.1", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
            ("-1:2:0.3", (-1.0, -0.7, -0.4, -0.1, 0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0)),
            ("0:0.3:0.1", (0.0, 0.1, 0.2, 0.3)),
            ("1:1:1", (1.0,)),
            ("3:1:1", ()),
            ("1,2,3", (1.0, 2.0, 3.0)),
        ],
    )
    def test_grid_points(self, text, points):
        from rmpsc.cli import _parse_grid

        assert _parse_grid(text) == points

    @pytest.mark.parametrize("grid", ["1e17:2e17:1", "0:1:1e-11"])
    def test_grid_step_that_rounds_away_exits_2(self, capsys, grid):
        # 1e17 + 1 == 1e17, and round(1e-11, 10) == 0.0: the grid would
        # never advance, so it is refused as a usage error
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--imin", "19", "--n", "6", f"--ebn0={grid}"])
        assert exc.value.code == 2
        assert "--ebn0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--ebn0", "5:1:1", "--max-trials", "100", "--target-errors", "10"],
            ["--ebn0", "3,2", "--max-trials", "100", "--target-errors", "10"],
            ["--ebn0", "2", "--max-trials", "10", "--target-errors", "100"],
        ],
        ids=["empty-grid", "decreasing-grid", "target-above-max"],
    )
    def test_bad_campaign_fails_before_sampling(self, tmp_path, capsys, args):
        out = tmp_path / "bad.csv"
        code, _, err = run_cli(
            ["simulate", "--imin", "27", "--n", "7", "--dec", "ae", "--m", "8"]
            + args
            + ["--out", str(out)],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert not out.with_suffix(".perms.txt").exists()

    def test_zero_m_fails(self, tmp_path, capsys):
        out = tmp_path / "ae.csv"
        code, _, err = run_cli(
            [
                "simulate", "--imin", "19", "--n", "6", "--dec", "ae", "--m", "0",
                "--max-trials", "100", "--target-errors", "10", "--out", str(out),
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert not out.with_suffix(".perms.txt").exists()

    def test_byte_identical_with_workers(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "simulate", "--imin", "11", "--n", "5", "--ebn0", "1:2:1",
            "--max-trials", "300", "--target-errors", "30", "--seed", "9",
        ]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--workers", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestExtend:
    def test_prediction_matches(self, tmp_path, capsys):
        out = tmp_path / "ext.json"
        code, stdout, _ = run_cli(
            ["extend", "--imin", "19", "--n", "6", "--out", str(out)], capsys
        )
        assert code == 0
        assert "predicted_blta: 4;3" in stdout
        assert "computed_blta: 4;3" in stdout
        assert "match: True" in stdout
        from rmpsc.codes import CodeSpec

        ext = CodeSpec.load(out)
        assert ext.N == 128 and ext.i_min == (19,)

    def test_length_one_code(self, capsys):
        code, stdout, _ = run_cli(["extend", "--imin", "0", "--n", "0"], capsys)
        assert code == 0
        assert "base: N=1 K=1 blta=\n" in stdout
        assert "predicted_blta: 1\n" in stdout
        assert "computed_blta: 1\n" in stdout
        assert "match: True" in stdout

    def test_non_rm_polar_rejected(self, capsys):
        code, _, err = run_cli(["extend", "--imin", "24", "--n", "5"], capsys)
        assert code == 1
        assert "error:" in err


class TestSamplePerms:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "perms.txt"
        code = main(
            ["sample-perms", "--imin", "19", "--n", "6", "--m", "3",
             "--seed", "4", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        from rmpsc.autgroup import load_permutations

        perms = load_permutations(out, 64)
        assert len(perms) == 3

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["sample-perms", "--imin", "11", "--n", "5", "--m", "2", "--seed", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_length_one_code(self, capsys):
        code, stdout, _ = run_cli(["sample-perms", "--imin", "0", "--n", "0", "--m", "1"], capsys)
        assert code == 0
        assert stdout == "0\n"

    def test_zero_m_fails(self, tmp_path, capsys):
        out = tmp_path / "perms.txt"
        code, _, err = run_cli(
            ["sample-perms", "--imin", "19", "--n", "6", "--m", "0", "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert "error:" in err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rmpsc.cli", "analyze", "--imin", "3", "--n", "2", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["K"] == 1

    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rmpsc.cli", "frobnicate"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2


class TestPinnedOutputs:
    # SHA-256 of four outputs taken before Permutation became the one
    # validator of permutations; refactors must leave these bytes alone
    AE = [
        "simulate", "--n", "7", "--imin", "27", "--dec", "ae", "--m", "8", "--ebn0", "1:4:1",
        "--max-trials", "20000", "--target-errors", "200", "--seed", "3",
    ]
    DIGESTS = {
        "ae.csv": "52cb83e57f0a8ee95987ddc47352aa17dfd981a68beca09ac4af67900fb26840",
        "ae.perms.txt": "7f72c120fb9dc4dab8316b79fd1a07d41a14bf43aeeab3902a28735f1f1ac325",
        "sc.csv": "20c3cf4b2d8ae38502a1040fb125405b8e76e251a8715ae2cc80266a8bf8058d",
        "analyze.json": "d96fdc4c12f1e15059991440e31ecb4a68be636f964150c302b6efd378a52e69",
    }

    def test_output_digests(self, tmp_path, capsys):
        import hashlib

        sc = list(self.AE)
        sc[1:5] = ["--n", "6", "--imin", "19"]
        sc[sc.index("ae")] = "sc"
        for args, name in (
            (self.AE, "ae.csv"),
            (sc, "sc.csv"),
            (["analyze", "--imin", "27", "--n", "7", "--absorption", "--json"], "analyze.json"),
        ):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.DIGESTS
        }
        assert digests == self.DIGESTS
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.DIGESTS)
