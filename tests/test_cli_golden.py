"""Golden byte pin of every CLI subcommand and mode.

Each case runs ``cli.main`` on a small input and reduces its run directory
to one SHA-256 over every file name and its bytes. In the manifest of a
file-input run the absolute input path is cut to the file name and the
self-hash (which covers that path) is blanked, after checking that it is
consistent. ``tests/data/pipeline_lorenz_manifest.json`` is a manifest
written when the pins were recorded; replaying it must give the same bytes.
The series are pure-Python RK4 output and the analysis uses numpy's float64
log2, so the pins assume IEEE-754 doubles and a numpy whose log2 rounds as
on x86-64 builds.
"""

import hashlib
import json
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest

import ordmaps as om
from ordmaps import cli, manifest

DATA = Path(__file__).parent / "data"

SMALL_SIM = ["--points", 20000, "--discard", 0.5]

# name -> argv, with FILE standing for the Lorenz series file, NOISE for the
# noise file, on which hundreds of patterns occur, and ZEROS for a file of
# signed zeros, subnormals and values repeated many times over
CASES = {
    "generate-lorenz": ["generate", "lorenz", "--seed", 1, "--points", 3000, "--discard", 0.5],
    "generate-lorenz-flags": [
        "generate", "lorenz", "--sigma", 11, "--rho", 30, "--beta", 2.5,
        "--initial-state", "1,1,1", "--dt", 0.005, "--points", 3000, "--discard", 0.2,
    ],
    "generate-rossler": ["generate", "rossler", "--seed", 2, "--points", 3000, "--discard", 0.5],
    "generate-rossler-flags": [
        "generate", "rossler", "--alpha", 0.1, "--beta", 0.1, "--gamma", 14,
        "--seed", 3, "--points", 3000, "--discard", 0.5,
    ],
    "generate-mackey-glass": ["generate", "mackey-glass", "--points", 3000, "--discard", 0.5],
    "generate-mackey-glass-flags": [
        "generate", "mackey-glass", "--beta", 0.2, "--gamma", 0.1, "--delay", 17,
        "--exponent", 10, "--history-value", 1.2, "--initial-state", 0.9,
        "--dt", 0.1, "--points", 3000, "--discard", 0.3,
    ],
    "analyze": ["analyze", "FILE"],
    "analyze-amplitude": ["analyze", "FILE", "--ranking", "amplitude", "--m", 3, "--tau", 2],
    "analyze-whitespace": ["analyze", "FILE", "--format", "whitespace", "--dt", 0.25],
    "analyze-flags": [
        "analyze", "FILE", "--m", 5, "--tau", 3, "--w", 2, "--sub-m", 4, "--sub-tau", 2,
        "--sub-w", 2, "--gap-fraction", 0.1, "--max-levels", 4,
    ],
    "frm-level": ["frm", "FILE", "--level", 1],
    "frm-level-weighted": ["frm", "FILE", "--level", 2, "--by", "weighted"],
    "frm-pattern": ["frm", "FILE", "--pattern", "4-3-2-1", "--pattern", "1-2-3-4"],
    "frm-pattern-amplitude": ["frm", "FILE", "--pattern", "1-2-3-4", "--ranking", "amplitude"],
    "frm-maxima": ["frm", "FILE", "--maxima"],
    "frm-maxima-sign-split": ["frm", "FILE", "--maxima", "--sign-split"],
    "levels": ["levels", "FILE"],
    "levels-per-entry": ["levels", "FILE", "--per-entry", "--by", "weighted"],
    "embed-pattern": ["embed", "FILE", "--dim", 3, "--lag", 9],
    "embed-level": ["embed", "FILE", "--dim", 3, "--lag", 9, "--color", "level"],
    "embed-none": ["embed", "FILE", "--dim", 2, "--lag", 6, "--color", "none"],
    "embed-tau": ["embed", "FILE", "--dim", 2, "--lag", 5, "--tau", 4, "--color", "level"],
    "embed-amplitude-w2": ["embed", "FILE", "--dim", 3, "--lag", 9, "--w", 2, "--ranking", "amplitude"],
    "pipeline-file": ["pipeline", "FILE"],
    "pipeline-file-lag": ["pipeline", "FILE", "--lag", 6, "--m", 5, "--per-entry", "--sign-split"],
    "pipeline-file-color-none": ["pipeline", "FILE", "--color", "none"],
    "pipeline-lorenz": ["pipeline", "lorenz", "--seed", 1, *SMALL_SIM],
    "pipeline-rossler": ["pipeline", "rossler", "--seed", 1, *SMALL_SIM],
    "pipeline-mackey-glass": ["pipeline", "mackey-glass", *SMALL_SIM],
    "pipeline-lorenz-lag": [
        "pipeline", "lorenz", "--seed", 1, *SMALL_SIM, "--lag", 12, "--color", "level",
        "--by", "weighted", "--frm-level", 2,
    ],
    "analyze-noise-m6": ["analyze", "NOISE", "--m", 6, "--tau", 1, "--ranking", "amplitude"],
    # 120 partitions, none degenerate, most with entropy sums of more than 8 terms
    "analyze-noise-sub": ["analyze", "NOISE", "--m", 5, "--tau", 1, "--sub-m", 4, "--sub-tau", 2, "--sub-w", 2],
    "levels-noise-m6": ["levels", "NOISE", "--m", 6, "--tau", 1, "--per-entry"],
    # 3,210 partitions, 3,114 of them degenerate, with 5 distinct h_wt: ties in ranks and levels
    "analyze-noise-m7": ["analyze", "NOISE", "--m", 7, "--tau", 1],
    # 64 return maps
    "frm-noise-level": ["frm", "NOISE", "--m", 6, "--tau", 1, "--level", 2],
    # 120 return maps: the one level holds every partition, whose entries are gathered together
    "frm-noise-one-level": ["frm", "NOISE", "--m", 5, "--tau", 1, "--level", 1, "--gap-fraction", 0.9],
    "embed-noise-m5": ["embed", "NOISE", "--m", 5, "--tau", 1, "--dim", 3, "--lag", 2, "--color", "level"],
    "embed-signed-zeros": ["embed", "ZEROS", "--m", 3, "--dim", 3, "--lag", 1],
    "pipeline-signed-zeros": ["pipeline", "ZEROS"],
}

GOLDEN = {
    "analyze": "4d1a633871faa43bdabd88b76ba9f3870c2584d6842dd5a7a33c84154e7ad460",
    "analyze-amplitude": "486b24e6a762627196f57f06ac54e6945fcb7be9cc81053eb6389f319db23298",
    "analyze-noise-sub": "ae13563c306c7f9c0d63d0ea8dc759eafa94b5843caea13a23ab6205b481e60f",
    "analyze-noise-m7": "a93904105032e73d7fe382adadace65ec3b8bb5c2b5deb272b1c9321cc28c649",
    "analyze-noise-m6": "e71fb5d8254623ebcbaf1541cce5fe696f82d910940b752f335bdadf0b503efb",
    "analyze-flags": "d63a0f883b9fd6af650d188680eb6ec87cec8e792d376c4bf9320501df69383f",
    "analyze-whitespace": "fe003c22819963ccdfb070ad8420c117998da8974fb27b5daffad7d7a673c428",
    "embed-amplitude-w2": "69691aa376c7b1dc49d7afde4d0bd1fc332d5d5573555e144c4796d82a0c811d",
    "embed-level": "ce5846b0fce195a93f8c8a80fb9b7ecf668c2baf9ee67b3335ef39c62611ebba",
    "embed-none": "1a0d699c69491b55308e4cb1db68477ed800716a11cb09b2acb2beaa608369da",
    "embed-noise-m5": "bf17d7f6fe8b81e6feab7c7bbf4a13bd99b11a5e0bf74696348557e764a62de1",
    "embed-signed-zeros": "182f433db61a29e772be9d2d9ae29aa050e53c1c5f3b0dac9b2372f1b78d94c2",
    "embed-pattern": "1fb8ffd0062212486055afe1f505bc6b495995fe63e2caa71d7e99aa6b1c7170",
    "embed-tau": "79206933aa23c6a20638085656922674fa0600b50c718a67de3e5f902bd98bb5",
    "frm-level": "8e88208adfff6a4fd9d964fa5290c5c2fbf79f3948603f4e59a5b826d1ec52ef",
    "frm-noise-level": "af0f662fac047f6b34d91d086ce3a96e11fe86d80a67be2797788b1b444a9f41",
    "frm-noise-one-level": "850aab9bd57011d9e0d190bc3f2a2d70460f967abc07fa0a29d004d69772322f",
    "frm-level-weighted": "cc31a31ec8d0e2bbaff8455f2a540976dfc9169023aacc26560616784dadc1ef",
    "frm-maxima": "808b9d4ff16a9f1d51b2fc6f96ca3097d03f594fa401cc3ac808ec5c9ea6aa0d",
    "frm-maxima-sign-split": "76973f18fc304f89754718cac61cf87045349a39a2e9666d374cf7d6d55aa8c3",
    "frm-pattern": "69609e9565cf9e0f92bfa2f8bc974d4a572e7c906deefdd883cee6ada2ee148f",
    "frm-pattern-amplitude": "ea4fce915e7722de1bd4beafb4fee1a8436c3315bb15d6f18c93c256d1a3751a",
    "generate-lorenz": "4b1a2da73776ec3dfb41e678dcc19854d11e7251450b65b43c557d339975cd19",
    "generate-lorenz-flags": "f9657af2ab068690d672050c0686e0a98b0900889d7f4de8cef247a085a22ac6",
    "generate-mackey-glass": "9fd61a0383239105285fe39c34795f8cd5866edc7347595e056f6d9dda4e160d",
    "generate-mackey-glass-flags": "e96e56cf4b973287cbd30147f7eaafe989dfe2814f24a67e6c38540e10ecf659",
    "generate-rossler": "fd84d1edc7ffca9cce1edb97937d1d494fda8f3c22ab1a3fbd9810d496889a73",
    "generate-rossler-flags": "e1a3310b8861b6f832976891866bc063313eca587f15fd8b3890a2c017c11240",
    "levels": "b3932429bab3717958c2a055ead9013b709fbf849d2fe3f79ae2ddf64f52d7f4",
    "levels-noise-m6": "bc2a1cebb0aeb4737522380c9f14baaffb51ed487fa515c5363f3468d44d7d3d",
    "levels-per-entry": "a43ef3a35e29b66cdcb43c5598c9472a555ff7cf1e329ba47fcd2ece052f6b32",
    "pipeline-file": "e4b89d630b8ab3d1f002c8093ae80d3f5599dc6523c8259c21cfef1cc5c3af19",
    "pipeline-file-lag": "79c39653838c2e78493081f93f0e46f750de347f6430e8ba6c35222206e0c1a2",
    "pipeline-file-color-none": "82dfaea9aa2871fe836f258ba3804b2470a12aa82392cabe922123429ca8746b",
    "pipeline-lorenz": "d7a09d29158ff11e9cd1d2238935e575be3caa0c8f1a6aba8b4cfc2ed1b5a6ef",
    "pipeline-lorenz-lag": "6892ffe7e81fe2b3d52b6c645e24a43a705b19b03223401be1bd08d5aa1411ec",
    "pipeline-mackey-glass": "8b471eb0c7568ee4b922bfde0062065d1ba801a506cd3d042de445c0d6d95ba7",
    "pipeline-signed-zeros": "d1bc6b542bee8c1a526333fbd1558ac26db8f44c392a16ce15b235f4018cf9c6",
    "pipeline-rossler": "24f56b16322fb42b4f32b038935b27c3edd14f62c41f0afd4eb171bfbcaa4d9c",
}


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    sim = om.SimulationConfig(total_points=6000, discard_fraction=0.5, initial_state=(1.0, 1.0, 1.0))
    path = tmp_path_factory.mktemp("golden") / "lorenz.csv"
    om.dump_series(om.integrate_lorenz(cfg=sim), path)
    return path


@pytest.fixture(scope="module")
def noise_file(tmp_path_factory):
    # random.Random's stream is fixed across Python versions; numpy's Generator is not
    draw = random.Random(20261018).random
    path = tmp_path_factory.mktemp("golden") / "noise.csv"
    om.dump_series(om.TimeSeries(np.array([draw() for _ in range(5000)]), dt=1.0), path)
    return path


@pytest.fixture(scope="module")
def zeros_file(tmp_path_factory):
    # 0 and -0 compare equal but must keep their own text; 5e-324 is the least subnormal
    draw = random.Random(8).choice
    pool = ["0", "-0", "5e-324", "-5e-324", "0.1", "-0.1", "1e16", "2.5", "-2.5", "1"]
    path = tmp_path_factory.mktemp("golden") / "zeros.csv"
    path.write_text("# dt=1\nx\n" + "".join(draw(pool) + "\n" for _ in range(3000)))
    return path


@pytest.fixture(scope="module")
def inputs(series_file, noise_file, zeros_file):
    return {"FILE": series_file, "NOISE": noise_file, "ZEROS": zeros_file}


def run_dir_sha256(run_dir: Path, input_path: Path | None = None) -> str:
    """One SHA-256 over every file of a run directory, names included."""
    digest = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json" and input_path is not None:
            spec = json.loads(data)
            assert spec["manifest_sha256"] == manifest.manifest_digest(spec)
            full = json.dumps(str(input_path.resolve())).encode()
            data = data.replace(full, json.dumps(input_path.name).encode())
            data = re.sub(rb'"manifest_sha256": "[0-9a-f]{64}"', b'"manifest_sha256": ""', data)
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def run_case(name: str, files: dict[str, Path], out: Path) -> str:
    argv = [str(files.get(a, a)) for a in CASES[name]]
    assert cli.main(argv + ["--out-dir", str(out)]) == 0
    used = [files[a] for a in CASES[name] if a in files]
    return run_dir_sha256(out, used[0] if used else None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_directory_bytes_are_pinned(name, inputs, tmp_path):
    assert run_case(name, inputs, tmp_path / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("pipeline")))
def test_pipeline_writes_as_the_serial_stage_loop(name, inputs, tmp_path, monkeypatch, capsys):
    """A pipeline writes embedded.csv in a forked child; where os.fork is missing its stages run one by one."""
    outcomes = []
    for side in ("forked", "serial"):
        if side == "serial":
            monkeypatch.delattr(os, "fork")
        out = tmp_path / side / "run"
        code = cli.main([str(inputs.get(a, a)) for a in CASES[name]] + ["--out-dir", str(out)])
        captured = capsys.readouterr()
        with pytest.raises(ChildProcessError):  # no child left
            os.waitpid(-1, os.WNOHANG)
        left = sorted(str(p.relative_to(tmp_path / side)) for p in (tmp_path / side).rglob("*"))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outcomes.append((code, captured.out == f"{out}\n", captured.err, left, files))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:3] == (0, True, "")


@pytest.mark.parametrize("name", ["pipeline-file-lag", "pipeline-file-color-none"])
def test_rerun_of_file_run_is_pinned(name, series_file, tmp_path):
    run_case(name, {"FILE": series_file}, tmp_path / "first")
    again = tmp_path / "again"
    assert cli.main(["rerun", str(tmp_path / "first" / "manifest.json"), "--out-dir", str(again)]) == 0
    assert run_dir_sha256(again, series_file) == GOLDEN[name]


def test_rerun_of_committed_manifest_is_pinned(tmp_path):
    out = tmp_path / "replay"
    assert cli.main(["rerun", str(DATA / "pipeline_lorenz_manifest.json"), "--out-dir", str(out)]) == 0
    assert run_dir_sha256(out) == GOLDEN["pipeline-lorenz"]
    assert (out / "manifest.json").read_bytes() == (DATA / "pipeline_lorenz_manifest.json").read_bytes()


def test_pipeline_writes_the_files_of_each_command(series_file, tmp_path):
    window, embedding = ["--m", "5", "--tau", "3"], ["--dim", "3", "--lag", "9"]
    runs = {
        "pipeline": ["pipeline", *embedding, "--per-entry"],
        "analyze": ["analyze"],
        "levels": ["levels", "--per-entry"],
        "embed": ["embed", *embedding],
        "frm": ["frm", "--level", "1"],
    }
    for name, (command, *extra) in runs.items():
        assert cli.main([command, str(series_file), *window, *extra, "--out-dir", str(tmp_path / name)]) == 0, name
    maps = sorted(path.name for path in (tmp_path / "frm").glob("frm_partition_*.csv"))
    assert maps
    files = {
        "analyze": ["symbols.csv", "partitions.csv", "entropy_curve.csv", "opn_edges.csv", "opn_nodes.csv"],
        "levels": ["level_sequence.csv", "level_network.csv"],
        "embed": ["embedded.csv"],
        "frm": maps,
    }
    for command, names in files.items():
        for name in names:
            assert (tmp_path / "pipeline" / name).read_bytes() == (tmp_path / command / name).read_bytes(), name


def test_pipeline_writes_the_series_generate_writes(tmp_path):
    sim = ["lorenz", "--seed", "1", "--points", "3000", "--discard", "0.5"]
    for command in ("pipeline", "generate"):
        assert cli.main([command, *sim, "--out-dir", str(tmp_path / command)]) == 0
    assert (tmp_path / "pipeline" / "series.csv").read_bytes() == (tmp_path / "generate" / "series.csv").read_bytes()
