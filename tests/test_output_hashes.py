"""Byte identity of small runs: the sha256 of every file each run writes,
manifest included, pinned to the digests of the last known-good outputs.

A change that moves one byte of one output fails here.  A change meant to
alter outputs updates the digests it moves and says why in CHANGES.md.
"""

import pytest

from torusdyn import cli
from torusdyn.report import sha256_file

# [sft] graph files, written into the working directory of every run; the
# configs name them by relative path, so manifest.json echoes a fixed one
GRAPHS = {
    # complete digraph on 4 vertices with self-loops and quarter-integer
    # weights; 17/168,55/336 is the mean of its 7 hull vertices
    "k4.txt": (
        "vertices 4\n0 0 1/2 -3/4\n0 1 1/2 1/4\n0 2 -3/4 3/4\n0 3 -1/2 1\n"
        "1 0 1/2 -1/2\n1 1 -1/4 -1/4\n1 2 1/4 3/4\n1 3 -1/4 1/4\n"
        "2 0 -1/4 3/4\n2 1 -1/2 -1\n2 2 3/4 -1/2\n2 3 3/4 1/2\n"
        "3 0 -1/4 -1\n3 1 1 3/4\n3 2 -1/4 1\n3 3 -1/2 -3/4\n"
    ),
}

# name -> (config, file name -> sha256)
PINNED = {
    "rotset-drift-shear": (
        "[map]\nmap = drift_shear\nd = 0.5\n[run]\ncommand = rotset\n[rotset]\ngrid = 8\nn1 = 50\nn2 = 200\n",
        {
            "manifest.json": "ab5ef2635bf713aa8ecb45953b8a1d48c8f3a6015906e2783e79e9f6aacf9b00",
            "rotset.csv": "baf0d6b68ea5d87c72081c75d2fed803b10897692181b2fa457c7b79ac20e5df",
            "rotset.json": "70b2e5795f1d5ada297a1d9065a8fa8eb1a0335bf15c3d980c63a62341c6f2fa",
            "rotset.svg": "e8f9b4955d3c9bea9bdaeb50c2b892aec475dfeea4a19b9ac5cfe61224e54301",
        },
    ),
    "vrotset-k1.2-eps0.1": (
        "[map]\nmap = standard\nk = 1.2\nepsilon = 0.1\n[run]\ncommand = vrotset\n"
        "[vrotset]\ngrid = 8\nn1 = 50\nn2 = 200\n",
        {
            "manifest.json": "4b6bb93dd0df0a133e14179da1d1886abca8ae13221a43a81a415af865916d5f",
            "vrotset.csv": "4a486c0fb821d1e8bf59cc7502348adb023330f81a4a498bdaf7ea50180ce3a1",
            "vrotset.json": "415d45000348352729858aea39a07fed0c112270b8f5e49826ce4c7588ae1cb9",
        },
    ),
    "confinement-south": (
        "[map]\nmap = standard\n[run]\ncommand = confinement\n"
        "[confinement]\nmode = south\nwindow = 2\nstep = 0.0625\nhorizon = 100\n",
        {
            "confinement.json": "b5f4ff3f7e998d53352cb350752e5acd5d7fbefece82eb2de261bd87c85c90be",
            "confinement.svg": "31a7c6dd947c9e352bb666cd9753eb26f7211a2a1e96482e6a214f3666651d0b",
            "manifest.json": "12d360505b8c11e65af65f27cb5401ddcaacd2f5c985d95e4e286c841d1bc6d7",
        },
    ),
    "confinement-theta": (
        "[map]\nmap = standard\nk = 0.3\n[run]\ncommand = confinement\n"
        "[confinement]\nmode = theta\ntheta = 2.0\nwindow = 2\nstep = 0.0625\nhorizon = 100\n",
        {
            "confinement.json": "b33347f9a97464a71ec0419b9875bc655cb4207649f47365abcce3e4345b09a4",
            "confinement.svg": "5afa31b4a48c46be912a2322269ab96db563e042d2ae28b28824f86a402f201c",
            "manifest.json": "3a396af2df76951ae4ef1192b628728628fc92de77473147faf74b26639a5175",
        },
    ),
    "omega-probe-south": (
        "[map]\nmap = standard\n[run]\ncommand = omega-probe\n"
        "[confinement]\nmode = south\nwindow = 2\nstep = 0.0625\nhorizon = 100\n[omega]\nextra = 200\n",
        {
            "manifest.json": "281b481dcc02b6c809b6551ab6e25bd2d1b44c0a4b9ae5062df7aadf21626dff",
            "omega.json": "e03adde91924aca8edf4f2cc62a0f49f4466b6b9306b4db554d51e872ba01329",
        },
    ),
    "sft-hull-k4": (
        "[run]\ncommand = sft-hull\n[sft]\ngraph = k4.txt\n",
        {
            "manifest.json": "f182dbf239f3f15124e7b75683558437aaec7b5efbd86c0d3083cc769c8be23c",
            "sft_hull.json": "05936043a17f5d40d7bbdab4c056bfc0e8a8005fc7ae450bbca2951771f75ee6",
        },
    ),
    "sft-orbit-k4": (
        "[run]\ncommand = sft-orbit\n[sft]\ngraph = k4.txt\nrho = 17/168,55/336\n",
        {
            "manifest.json": "81444ac09de11904a033e6a5195af90a45d347972c742ddbb1da01d0399f8220",
            "sft_orbit.json": "8fa5bf021c1b1c9f89eaa33446e93569015c8a6b55f11d645a97db080fc0d46d",
        },
    ),
    "sft-hull-two-loop": (
        "[run]\ncommand = sft-hull\n",
        {
            "manifest.json": "2b06a14c98f76bc998ecbe23788ce1028a253401c073b137ae38587023b4f5b2",
            "sft_hull.json": "bdc2d7f852eb95652cb6ff30d3b91ed8deb833c66fd523338f78cb9f210dd11e",
        },
    ),
    "sft-orbit-two-loop": (
        "[run]\ncommand = sft-orbit\n[sft]\nrho = 1/3,2/3\n",
        {
            "manifest.json": "e18e66d7c51d50c91c4cef346d25411f3e4354d8bfa8096725d176619ff92dca",
            "sft_orbit.json": "57d490e5178da849c7668b27eb5e19ca83898af1b04c8b02545c29247d4d1379",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, name):
    text, digests = PINNED[name]
    monkeypatch.chdir(tmp_path)
    for graph, graph_text in GRAPHS.items():
        (tmp_path / graph).write_text(graph_text)
    (tmp_path / "run.cfg").write_text(text)
    assert cli.main(["run", "run.cfg", "--out", "out"]) == 0
    assert {p.name: sha256_file(p) for p in (tmp_path / "out").iterdir()} == digests
