"""Golden outputs: the byte-reproducibility contract of the command line.

Each command runs in process through cli.main; the sha256 of its stdout and
its exit code must equal the values recorded here.  The digests were taken
before the split-check stages were computed per window (the per-complex
engine set-up, the interval safe region and the per-factor verification),
so a change to any stage that moves a byte of output fails here.  The two
wide windows, recorded before strand propagation ran on bit planes and the
extremal positions were found against the maximal front, run both stages
at scale.  The three windows of negative and mixed twists, recorded before
the perturbation series stopped at the last level that can reach a class,
run the capped series and its level-0 multiplication at scale.  The
single-twist cohomology cases and the regions grids were recorded before the
truncated Cech reference moved out of the package; the sliced safe JSON grid
was re-recorded when a sliced regions output began to name its slice.  The
help and usage-error cases pin stdout, stderr and the exit code; they were
recorded while every command still built the parsers of all four
subcommands, and the unrecognized, missing, invalid and abbreviated flag
cases and the invalid complex (whose stderr lists its d o d violation) while
every command still parsed through a top-level parser.
"""

import hashlib
import types

import pytest

from conftest import ideal_sheaf_complex, koszul_point_complex, koszul_sign_flip_json
import prodcoh
from prodcoh import cli
from prodcoh.coxring import free_complex
from prodcoh.lattice import ProductSpace
from prodcoh.linalg import RATIONALS, default_field
from test_cli import write_complex
from test_minmodel import ideal_of, koszul_point

P11, P111, P23 = ProductSpace((1, 1)), ProductSpace((1, 1, 1)), ProductSpace((2, 3))
P12 = ProductSpace((1, 2))

COMPLEXES = {
    "p11-split": lambda: free_complex(P11, [(-1, -1), (0, 0), (1, 1), (1, 1)]),
    "p11-nonsplit": lambda: free_complex(P11, [(0, 0), (1, -2), (-1, -1)]),
    "p111-split": lambda: free_complex(P111, [(1, 1, 1), (0, 0, 0), (0, 0, 0), (-1, -1, -1)]),
    "p111-nonsplit": lambda: free_complex(P111, [(0, 0, 0), (0, 1, -2)]),
    "p23-split": lambda: free_complex(P23, [(-1, -1), (0, 0), (1, 1)]),
    "p23-split-d21": lambda: free_complex(P23, [(-2, -1), (0, 0), (2, 1), (2, 1)]),
    "p23-nonsplit": lambda: free_complex(P23, [(1, 1), (-3, 1)]),
    "koszul": koszul_point_complex,
    "koszul-q": lambda: koszul_point_complex(RATIONALS),
    "ideal": ideal_sheaf_complex,
    "koszul-p12": lambda: koszul_point(P12, default_field()),
    "ideal-p111-q": lambda: ideal_of(koszul_point(P111, RATIONALS)),
    # An invalid complex cannot be built, so this one is its JSON object.
    "koszul-sign-flip": koszul_sign_flip_json,
}

# name, complex, command and its flags (--input is added), exit code, and the
# sha256 of stdout, followed by "\0" and stderr when stderr is not empty.
CASES = [
    ("split-p11", "p11-split", "split-check --d 1,1 --window -4:3,-4:3", 0,
     "cfeb1ecc2230db7f88939ea87ed12d0c9b85cd9e50e8e1478b30e4d05591a52e"),
    ("split-p11-tf", "p11-split",
     "split-check --d 1,1 --window -3:3,-4:2 --assert-torsion-free", 0,
     "f800532d7128abca41003272d77375ddbc4a1ec685a52dc4a63718c8ae221fc5"),
    ("nonsplit-p11", "p11-nonsplit", "split-check --d 1,1 --window -4:3,-4:3", 10,
     "280e557018152f2f69801b9843599ff8ad6c6fb122ce2a618a3f6451069cb108"),
    ("inconclusive-p11", "p11-split", "split-check --d 1,1 --window 0:1,0:1", 11,
     "3561d987b86e16e3fdd2228727cfb304203cfc7e57c57c49de81626e799a5ede"),
    ("inconclusive-p11-koszul", "koszul", "split-check --d 1,1 --window -3:2,-3:2", 11,
     "63b5f30d8f97fd4f0e4a0dd0b6140b85374ab4ef12be9ba94855090383989ad3"),
    ("nonsplit-p11-ideal", "ideal", "split-check --d 1,1 --window -3:3,-3:3", 10,
     "1d1e9b3c443334a307f31ad3241d73c530ec70129939c3e8d3e0f802d94ff7b8"),
    ("split-p111", "p111-split", "split-check --d 1,1,1 --window -3:2,-3:2,-3:2", 0,
     "0e38d8aa6fde108d0a5d39ee01752455d415cde79901e008913012183188adcc"),
    ("nonsplit-p111", "p111-nonsplit", "split-check --d 1,1,1 --window -3:2,-3:2,-3:2", 10,
     "463fba1959fb4ab7f1356508278c0e26f3cfed223ec51f866dc9319e13700f92"),
    ("split-p11-wide", "p11-split", "split-check --d 1,1 --window -30:30,-30:30", 0,
     "7372f5b3845204c07799693cc70deddf915e7f58cabd32e5146b136ea1b869cb"),
    ("split-p111-wide", "p111-split", "split-check --d 1,1,1 --window -8:8,-8:8,-8:8", 0,
     "2a0f75bf879be5adee646a7746d44bbbc3e894d45342e3cd4c8be4d538458016"),
    ("inconclusive-p111", "p111-split", "split-check --d 1,1,1 --window -1:1,-1:1,-1:1", 11,
     "7a5d58228db5cba359a7343debfc266751dc64fcf70bfef93e6fda2fd963067d"),
    ("split-p23", "p23-split", "split-check --d 1,1 --window -4:2,-5:2", 0,
     "fce003a18e36b9638a073a7e691e9fd88f9842e382dcd09bb06a2058dea346cd"),
    ("split-p23-d21", "p23-split-d21", "split-check --d 2,1 --window -6:3,-5:3", 0,
     "552eb750d19bf3d768c42278324ceddc15bc546f395c1d9843076e1542d8965f"),
    ("nonsplit-p23-d21", "p23-split", "split-check --d 2,1 --window -6:3,-6:3", 10,
     "8ecc537dda6435fcb0b595c981c9120edbb1114a25280126e5d2b7fbfacda582"),
    ("nonsplit-p23", "p23-nonsplit", "split-check --d 1,1 --window -4:2,-5:2", 10,
     "2bdc3298fa0f6fab6f0f2ef4ef9bb8b801fe8093c90d1d8cc6e88bb0c3b5c37e"),
    ("inconclusive-p23", "p23-split", "split-check --d 1,1 --window -2:2,-2:2", 11,
     "e05fe319aac8eec8bfc96e3be612f776340578603c3f6a2f631e954a68151b3c"),
    ("window-json", "koszul", "cohomology --window -3:2,-2:3 --format json", 0,
     "21ec52abaa988d703f8eece3ae04c1c9e992324b1da78e1634fbe228bc1504bd"),
    ("window-csv", "ideal", "cohomology --window -3:2,-3:2 --format csv", 0,
     "278c8288d161c50929625d8c8d8803cdd623520828ca97463c646ccbe93c470b"),
    ("window-p12-wide-json", "koszul-p12", "cohomology --window -6:2,-6:2 --format json", 0,
     "244e9885626fd08d00cdefc4b07a87c6ac62bc52ec3e20f0061cca89939c81d0"),
    ("window-ideal-wide-csv", "ideal", "cohomology --window -8:8,-8:8 --format csv", 0,
     "b02b4ce6660002197b5e6bb81bda9dd36629b11b66c6b1f386af3e0011d5f2f1"),
    ("window-p111-ideal-q-json", "ideal-p111-q",
     "cohomology --window -3:1,-3:1,-3:1 --format json", 0,
     "ee0e658448a1ff31d21dc607380bf1a3c27d8701b45732a2e77a071d98b60f92"),
    ("window-ascii", "p23-nonsplit", "cohomology --window -4:1,-5:1", 0,
     "b1026dccb5b6fc7a49636f500296a4da287392c7b4a5b0b1bad723281c4d713b"),
    ("window-q-json", "koszul-q", "cohomology --window -2:1,-2:1 --format json", 0,
     "ff859ea92b8c1e5048225ea4c8db4fb4c7dd354b61eb3aaacdd7e5e61ac6a5a1"),
    ("tate-koszul", "koszul",
     "tate-profile --b 0,0 --checks tate,corner,strand --c 0,0 --J 0", 0,
     "ec3bfed66058dac4882666419e03f2c852f88d0985d8db38b73ea5e73e6e6fe7"),
    ("tate-ideal", "ideal",
     "tate-profile --b 1,0 --checks tate,corner,strand --c 0,-1 --I 1 --K 0", 0,
     "89cdaabed3223f45e7037c9e769ffc4e2bfc91404c5a11e0972b41cd586f731f"),
    ("tate-p111", "p111-split",
     "tate-profile --b 0,0,0 --checks tate,corner,strand --c -1,0,0 --J 0,2", 0,
     "d677f512fb4283229e3e27b6c92423f46a0517d44bab4a1a4629120cba950b73"),
    ("twist-ascii", "koszul", "cohomology --twist 1,1", 0,
     "52f5b09b7f3a7b252add753da727be49c7dc72775ba4196b0f007f46738834e2"),
    ("twist-json", "ideal", "cohomology --twist -2,1 --format json", 0,
     "6a8f659ce31012f52b46568197bcab7a6ad67710994172e6c6679a6f87f322f6"),
    ("twist-field-q", "koszul", "cohomology --twist -1,-2 --field q", 0,
     "075001fc9480b79ca97258a17e42314b823dfdb702bc1914e3d9ad21928fdd72"),
    ("twist-check-prime", "p23-nonsplit", "cohomology --twist -1,-1 --check-prime 3", 0,
     "9a061209b7f5cbeb938ed9aee6cf6cc875ab6b98bd444a814588242b73d7379b"),
    ("twist-check-prime-json", "koszul",
     "cohomology --twist 1,1 --check-prime 3 --format json", 0,
     "43437b00ae3958e08d4f91834404d009a89413976c58f887bd15796fcfc2b5f1"),
    ("twist-invalid-complex", "koszul-sign-flip", "cohomology --twist 0,0", 2,
     "30578e2115c943b07d0288e174c86200943ab93cd6beff7aed95139d04c8dc74"),
]

# regions reads no complex: name, command, exit code, sha256 of stdout.
REGION_CASES = [
    ("regions-full-ascii", "regions --space 2,3 --window -5:1,-5:2 --mode full", 0,
     "b6abf254e2c03f9faf552f433a687f5a1cbf05bb3d5ef65fbe531a402b87cc85"),
    ("regions-full-json",
     "regions --space 2,3 --window -5:1,-5:2 --mode full --format json", 0,
     "5681ab0f1cb3e7954c5d6a803b75eafa853f98bdcce7ab26b9dbd6a87b463704"),
    ("regions-full-csv",
     "regions --space 2,3 --window -5:1,-5:2 --mode full --format csv", 0,
     "737372e51e308c4f922f0dc9ae954317e880b3570a45cdb13df8069f5cd7ca8e"),
    ("regions-intermediate-ascii",
     "regions --space 2,3 --window -5:1,-5:2 --mode intermediate", 0,
     "5f6e685e035d24f480b010d595d261e116db2b072cf2dc29e2ce6effe1b8c04d"),
    ("regions-intermediate-json",
     "regions --space 2,3 --window -5:1,-5:2 --mode intermediate --format json", 0,
     "4e13a9ff220b54eb1ef1955b19c5c77310de979478097926cede80007ca60e2e"),
    ("regions-intermediate-csv",
     "regions --space 2,3 --window -5:1,-5:2 --mode intermediate --format csv", 0,
     "43f89c61014954e81f69450048078b8fd5c923080261742e63b91776a1f374a4"),
    ("regions-safe-ascii", "regions --space 2,3 --window -6:3,-6:3 --mode safe --d 2,1", 0,
     "2475734451f906f393335049020deeb7196adbcc7d7c6d1835f19cbf8804c918"),
    ("regions-safe-json",
     "regions --space 2,3 --window -6:3,-6:3 --mode safe --d 2,1 --format json", 0,
     "64939efbe13229c7506effa5b1370c84c622459b529a57eae999a025b539f384"),
    ("regions-safe-csv",
     "regions --space 2,3 --window -6:3,-6:3 --mode safe --d 2,1 --format csv", 0,
     "f8b842f3883977f83b1c86965d3b5edf2052c39f7ae8c6d9c8cefe7b9278493c"),
    ("regions-slice-p111-safe-json",
     "regions --space 1,1,1 --window -3:3,-3:3,-3:3 --mode safe --d 1,1,1 --slice -1 "
     "--format json", 0,
     "2305f9f4dea8b1c343d47989b001f15460de3c0d7db5d249a368576ebafa01bb"),
    ("regions-slice-p111-full",
     "regions --space 1,1,1 --window -3:3,-3:3,-3:3 --mode full --slice -2", 0,
     "39d81b3164396fa549b905af5f176ec4de2949316c7a3dad65c700ed062e3305"),
]


@pytest.mark.parametrize("complex_name, command, code, digest",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_golden_output(tmp_path, capsys, complex_name, command, code, digest):
    path = write_complex(tmp_path, COMPLEXES[complex_name]())
    argv = command.split()
    got = cli.main(argv[:1] + ["--input", path] + argv[1:])
    out = capsys.readouterr()
    text = out.out + "\0" + out.err if out.err else out.out
    assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("command, code, digest",
                         [pytest.param(*case[1:], id=case[0]) for case in REGION_CASES])
def test_golden_regions(capsys, command, code, digest):
    got = cli.main(command.split())
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# argv, exit code, sha256 of stdout + "\0" + stderr (help wrapped at 80 columns).
USAGE_CASES = [
    ("", 2, "2001e28969413a9f4c5f2b7aa62c6d184bb28ae49a0b26cf82f72fae13176c11"),
    ("bogus", 2, "62bd61e7b70bfa88b4bfd387bd7210e1198f6c3a08bf88fa2437e0a8bb2f2e0b"),
    ("--help", 0, "594cbc142a277e1f67c4f0a8419556fb17a0eed8e6c3f8b8c7f48cf8e504c056"),
    ("-h", 0, "594cbc142a277e1f67c4f0a8419556fb17a0eed8e6c3f8b8c7f48cf8e504c056"),
    ("regions --help", 0,
     "c866f679a9b0a7242b0f5ba7ae8f8b523bc8735f80442c85379cc8ab0f5626d7"),
    ("cohomology --help", 0,
     "f7942d498f892fef9e00cab6261bbc678f5d85f4a6e9ae23f0802ee1d12a3471"),
    ("split-check --help", 0,
     "7682827ae08ed2688d097f966491d6e14e41dd8271f2a826a31b0d9de4ab60c8"),
    ("tate-profile --help", 0,
     "aaadc7c5729026dc74be31606c2f0d39b6fb729fbb51f15222e732a0532d7e82"),
    ("cohomology", 2, "673b83ae8f6c4a108ecc9c2c16aef33ca8ea53775e637eef758124a483513cbc"),
    ("cohomology --format xml --input x", 2,
     "1aa057c5ba215a7e53966d965df635682a6caf1cfa275dafee8996280686d914"),
    ("cohomology --input x --twist 1,1 --extra", 2,
     "f5edc180c06da735fb34fea7b06bf432f87e90e4704097a16570a3f3843711a7"),
    ("cohomology --check-prime x --input y", 2,
     "c9a14357e4f045f64a1e02ca1e75cf33615cf18b456d42bc343eb236c787dc02"),
    ("regions --space 1,1", 2,
     "c7a70576ff78b80c1a31d8de16fc25d0c56e9084c16842d42959cf3b3cc06d40"),
    ("regions --space 1,1 --window 0:1,0:1 --bogus", 2,
     "cdd96eecc7a7f13fa55355f169ed6df41d5fceb14bb90dd75d532384c0ae0a62"),
    ("split-check --input x --d 1,1 --window 0:1,0:1 --bogus", 2,
     "cdd96eecc7a7f13fa55355f169ed6df41d5fceb14bb90dd75d532384c0ae0a62"),
    ("tate-profile --b 0,0 --bogus", 2,
     "cdd96eecc7a7f13fa55355f169ed6df41d5fceb14bb90dd75d532384c0ae0a62"),
    ("split-check --input x --d 1,1", 2,
     "561398de3724777868777fa520ab934ab4901370f6632fb16d5f2abe5d9f8f1a"),
    ("tate-profile --input x", 2,
     "3600e3b4f13e0c6cd1396c2316f0233319063e360523a1bd602c319e17e353d5"),
    ("regions --space 1,1 --window 0:1,0:1 --mode bogus", 2,
     "e8197376f6ad98d5de3496e59ba7a1488149b1220a8e86ce226f82f4e1a97b95"),
    ("cohomology --input x --help", 0,
     "f7942d498f892fef9e00cab6261bbc678f5d85f4a6e9ae23f0802ee1d12a3471"),
    # An abbreviated flag: argparse's allow_abbrev reads --inp as --input.
    ("cohomology --inp x --twist 1,1", 2,
     "4042eb2c49e24e8e3f08d67a6bf83dcde4e109eea35de90f9fd1048d843840ed"),
]


@pytest.mark.parametrize("argv, code, digest",
                         [pytest.param(*case, id=case[0] or "empty") for case in USAGE_CASES])
def test_golden_usage(capsys, monkeypatch, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    got = cli.main(argv.split())
    out = capsys.readouterr()
    text = out.out + "\0" + out.err
    assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)


# The names `import prodcoh` exports, its submodules aside.  Test-only
# references live in tests/reference.py; one re-exported here fails.
EXPORTS = {
    "CohomologyTable", "ExtremalReport", "LatticeError", "LineBundleComplex",
    "MultiHomogPoly", "Polarization", "PrimeField", "ProductSpace", "RATIONALS",
    "RationalField", "SplitVerdict", "StrandInconsistency", "TateCoverageError",
    "TateTermProfile", "Window", "canonical_twist", "cohomology_table", "corner_checksum",
    "default_field", "extremal_hm", "free_complex", "hm_monotonicity_check",
    "hypercohomology", "hypothesis_violations", "leq", "line_bundle_h", "lt",
    "multiplicities", "parse_field", "poly_mult", "render_region", "safe_region",
    "split_check", "strand_checksum", "strand_propagate", "tate_term_dims",
    "validate_complex", "verify_split",
}


def test_package_exports():
    got = {name for name, value in vars(prodcoh).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert got == EXPORTS
