"""Pearson draws pinned bit for bit.

Each case is one fixed moment vector; its digest is the SHA-256 (first
16 hex digits) of ``[pearson_type, _loc, _scale, 64 draws]`` as float64
bytes, the draws taken from ``default_rng(index)``.  The digests were
recorded with the sampler built on ``scipy.stats`` frozen families and
``scipy.optimize.brentq``; the numpy-only families must reproduce them.
The cases cover all eight Pearson types, including points built on the
type-V line (kappa == 1), points on the edge of the feasible region and
infeasible vectors that ``pearson_system`` projects.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.stats.pearson import pearson_system

N_DRAWS = 64


def type5_kurt(skew: float) -> float:
    """Kurtosis on the kappa == 1 line for *skew* (|skew| < sqrt(32)).

    ``c1**2 == 4*c0*c2`` is the quadratic
    ``(32 - s2)*k**2 - (78*s2 + 96)*k + 36*s2**2 + 63*s2 == 0`` in the
    kurtosis ``k``; type V is its larger root.
    """
    s2 = skew * skew
    qa = 32.0 - s2
    qb = -(78.0 * s2 + 96.0)
    qc = 36.0 * s2 * s2 + 63.0 * s2
    return (-qb + np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)


def moment_cases() -> list[tuple[float, float, float, float]]:
    """The fixed (mean, std, skew, kurt) vectors, about 200 of them."""
    rng = np.random.default_rng(20261017)
    cases: list[tuple[float, float, float, float]] = []

    def loc_scale() -> tuple[float, float]:
        mean = float(rng.uniform(-5.0, 50.0))
        std = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        return mean, std

    # Types I, IV and VI: the interior of the feasible region.
    for _ in range(110):
        skew = float(rng.uniform(-3.0, 3.0))
        kurt = skew * skew + 1.0 + float(np.exp(rng.uniform(np.log(0.01), np.log(30.0))))
        cases.append((*loc_scale(), skew, kurt))
    # Type 0.
    for _ in range(5):
        cases.append((*loc_scale(), 0.0, 3.0))
    # Type II (1 < kurt < 3) and type VII (kurt > 3, down to 3+).
    for kurt in np.linspace(1.05, 2.95, 10):
        cases.append((*loc_scale(), 0.0, float(kurt)))
    for kurt in (3.001, 3.01, 3.1, 3.5, 4.0, 5.0, 7.5, 12.0, 25.0, 60.0):
        cases.append((*loc_scale(), 0.0, kurt))
    # Type III: the gamma line kurt = 1.5*skew**2 + 3, both mirrors.
    for skew in np.linspace(0.2, 3.0, 8):
        for sign in (1.0, -1.0):
            s = sign * float(skew)
            cases.append((*loc_scale(), s, 1.5 * s * s + 3.0))
    # Type V: the kappa == 1 line, both mirrors.
    for skew in np.linspace(0.15, 4.5, 13):
        for sign in (1.0, -1.0):
            s = sign * float(skew)
            cases.append((*loc_scale(), s, float(type5_kurt(s))))
    # Type VI: between the gamma line and the type-V line, both mirrors.
    for i, skew in enumerate(np.linspace(0.3, 3.5, 8)):
        for frac in (0.1, 0.5, 0.9):
            s = float(skew) if i % 2 == 0 else -float(skew)
            gamma_line = 1.5 * s * s + 3.0
            cases.append((*loc_scale(), s, gamma_line + frac * (type5_kurt(s) - gamma_line)))
    # The kurt = skew**2 + 1 edge (projected up by the feasibility margin).
    for skew in (-2.5, -1.0, -0.3, 0.0, 0.4, 1.7):
        cases.append((*loc_scale(), skew, skew * skew + 1.0))
    # Infeasible and non-finite shape moments, projected.
    for skew, kurt in ((2.0, 2.0), (-1.5, 1.0), (0.5, -4.0), (np.nan, 4.0), (1.0, np.inf)):
        cases.append((*loc_scale(), float(skew), float(kurt)))
    return cases


CASES = moment_cases()


def digest(index: int, case: tuple[float, float, float, float]) -> str:
    dist = pearson_system(*case)
    draws = dist.rvs(N_DRAWS, random_state=np.random.default_rng(index))
    record = np.concatenate(
        [[float(dist.pearson_type), dist._loc, dist._scale], draws]
    ).astype(np.float64)
    return hashlib.sha256(record.tobytes()).hexdigest()[:16]


# fmt: off
DIGESTS = [
    "67bb8db5a862be06", "7a4f6d839cb0e349", "e4feaf26a89e86d7", "b4f340a6fe40a047",
    "f5e3fe3286a0f5b3", "5cedfcec0e2d2bc2", "4332b3835123e6c1", "137713ae4dbd04a9",
    "69b35a080afd4378", "c96a43c2dbbc6413", "f5d1aa626d1c5991", "f90a695f51eacb26",
    "564d55d494b13745", "4254beebac836e81", "17f3b79233172bad", "e7d2d0edb86b2253",
    "de2aa424ac71fbc0", "774904fd1a9cf08b", "eb4b95bf7f5193f4", "557ca8d2ce0300b1",
    "c93fe044f56900ea", "e97b12f9eb79a815", "1bc8547db63c3dbb", "0e462ca7bbfc0213",
    "75172f47a586ebeb", "2ee7a04d167ff611", "6220beceadb782a5", "33cbca2bb6122f2f",
    "52991ef6ae144a3d", "1c52e778d8d2a578", "86572a6df75ae04e", "e6d730fe4fdc4d09",
    "c18e37929a7853c1", "8f5845dbad954b5b", "6b862516679a3e83", "2016417069aa74d1",
    "5ae89c7ca95cfbe8", "685dd84bf723c26b", "a6e6e2d3ddaf7eec", "dbcda0319dd576a4",
    "68ccbe4e7065b15e", "eaf79a7503b12520", "479196a3e189d177", "fa0fd049e44f139f",
    "873fdb4e9ec0deaf", "561409942dea77e2", "ec99c07b2c6ab773", "046a700a84b47253",
    "4f06bb2905928a4d", "9e70304a987e212e", "7ee8e43910a47add", "f422703a542bc710",
    "28f10e63c636ea25", "132e145593bbd88c", "18e91dec1a5e0d9a", "466e1835b9334335",
    "69adb74a827ac87e", "ab64af2858ee3dda", "37c2f59158e17b70", "6266361770be7a6b",
    "768f9e154a7fc8c4", "2e602e875da791b4", "8b317a3c425d8dc5", "4aac3ade470541a7",
    "f0637cb5f32bb9ec", "af11f91d44c885db", "c55dcac853e83fdf", "93733e4951c17468",
    "fc47334f54eebf75", "0ff6b4cb23e85079", "0ada9d799e494d06", "6d29e345b34a8252",
    "93b824f8056eba6c", "f085ffb6db3f716c", "02ca209dc08c3bc5", "751d32cfb8646825",
    "c153f1f6f532c3ef", "2a40381be2f17080", "bd47890c9ac44cb9", "6bc8fcacefcdd323",
    "1148056b6db03685", "48ffc1b854ce939f", "a5a644aff16ba720", "664ddea2d466f670",
    "5dd473196a2e816c", "f9f47052de6ce662", "e54e5151b44656e4", "2fba4fc068581018",
    "375ae4b85d47ca06", "4435afb5f8cc1dcd", "6db0cf6ab7833ae4", "067caacdf7fcd9ef",
    "9e125db2feab4d4f", "1ef654b7c6bfe47c", "18462e922b1a6a7a", "a4fd2ef0167dca5d",
    "6399ef29abf0480c", "ccd480528dcff71d", "738f63ff616ae122", "5f34da17b1e3581b",
    "b5d26006020ad82e", "9c447a2e1fbd2cba", "0746ff741f1b7eaf", "d3253db9b623d93d",
    "88fde623b839ff58", "da6439383427008b", "a9e3001a35ed877c", "d2829da02514389b",
    "963045397cfb1dd1", "20647b5a14f76ad3", "26da168fafb85ec0", "712f59fc2fc7ce67",
    "95318f6d313c9977", "d825aa54786dbedd", "2e8754ed811b272d", "1e5d4ec63dc95b7a",
    "00d13cdb59ca0862", "1fa88232090277e5", "24365ff4170a4438", "89dc8c7ab2d74584",
    "ad364b719658aef1", "e71c3d5aab2979bf", "4b9cfdb296de513f", "f84386b8bf1635ee",
    "99320508cab3c4ad", "4864ef9df1157a85", "0d19eb48a698499d", "75aab43bd1e3734d",
    "30e940e7ed110d3f", "84c279eb1ab2be06", "5ca86c5493f61480", "c8446246d043d8e1",
    "2a1d1dcfa717e2c5", "3ddb93798e45340e", "b2876c26072f7194", "12945cd201e8cfd7",
    "4437a5b3eaf80a9a", "748e5c48b854d28f", "6067dd1054a6200e", "0d9a82df1a29be96",
    "511e8c4f400a3ba5", "75ec86ca2eee6e4b", "5c13dd330460264d", "56475e7b3cc5df2b",
    "ee05e34efae491dd", "e87703aa8df6bc6b", "2379a7b6b3d7b07d", "8d1015577ff80038",
    "21ecb32c1f6f5ae6", "ead5b53262c65375", "4cfdb2f744b23747", "c36472f4aac32235",
    "ba8d7005d7bbcd05", "9ce57af912d66c74", "e9ae253433efd0d1", "4a25268a941e9f23",
    "44c7d3cf83cdee4e", "264e9fd49186a0fa", "25334a6f2836f0e9", "0afb0b238d8da48e",
    "0a3c600eb06318c5", "2c876ff27bd761ce", "af99f1fd2167bce2", "ae5e0a419abd33e3",
    "aea9404b6c330df9", "a5972ae0770145c8", "c2e08a32db0346a2", "e1a7fc306fb3ff1b",
    "8542f0835aa736d4", "17aeb6ad5b8c7e4e", "5b8e998d0e46043a", "0d613f301eb225c8",
    "39289862211c431e", "2b9b996380320159", "346db63654dc5100", "5cc979909f21baec",
    "814eccb0d6294623", "ada055141695b097", "5bec6410df7d69d7", "de4b8c7084954137",
    "e6eb7500136ef11e", "83d6ce37a9121b1b", "8b2c91b779b1f10f", "4cc341cf04737a62",
    "f7a32f5805ec95b9", "229e42b39f584a66", "a2cc2057801868e9", "5633405e3032f284",
    "3f52e1e84896477b", "ea108c082ae0faec", "ca651d37bc627e26", "09c05878bed1d6c9",
    "3c7245aae8497152", "6a6b6cea8070bf26", "2f590704fdcfaef8", "b3d49304008c08f7",
    "13ca50a3022c2789", "a4c553d45d5204e7", "b9df4f69a8587fe6", "5c6708819ab3f859",
    "26efe391b1eb72cd", "c42dee6a4d894d39", "71a2c7d800ae9e53", "d525d82dee48fdf9",
    "280a35eeed722fed", "e241b494a3f4ece0", "95ef756f0eda5bb0", "5d5d0b85a1077ff3",
    "3e70d4d4f438ae3b", "0f488d344590d23a", "30ef5ba546647551", "8466653d9d2d8974",
]
# fmt: on


def test_cases_cover_every_pearson_type():
    types = {pearson_system(*case).pearson_type for case in CASES}
    assert types == set(range(8))


def test_one_digest_per_case():
    assert len(DIGESTS) == len(CASES)


def test_draws_match_the_recorded_digests():
    moved = [i for i, case in enumerate(CASES) if digest(i, case) != DIGESTS[i]]
    assert moved == [], [CASES[i] for i in moved]
