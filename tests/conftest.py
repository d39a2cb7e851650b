import numpy as np
import pytest

from brdfnqm import sampling, synth
from brdfnqm.merl import Rgb
from brdfnqm.preprocess import LabeledPair, Provenance
from brdfnqm.sampling import DirectionSet, SampledBrdf

SMALL_RES = (16, 16, 32)


@pytest.fixture(scope="session")
def lambert_table():
    params = synth.AnalyticBrdfParams(model=synth.BrdfModel.LAMBERT, diffuse=Rgb(0.5, 0.5, 0.5))
    return synth.tabulate(params, res=SMALL_RES, name="lambert05")


@pytest.fixture(scope="session")
def ggx_table():
    params = synth.AnalyticBrdfParams(
        model=synth.BrdfModel.GGX_MICROFACET,
        diffuse=Rgb(0.2, 0.3, 0.25),
        specular=Rgb(0.7, 0.7, 0.7),
        roughness=0.25,
    )
    return synth.tabulate(params, res=SMALL_RES, name="ggx025")


def flip_bit(data: bytes, bit: int) -> bytes:
    """data with one bit inverted (bit 0 is the low bit of the first byte)."""
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def tiny_direction_set(k: int = 4, seed: int = 0, material: str = "m") -> DirectionSet:
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0.0, 0.5, size=k))
    td = rng.uniform(0.0, 0.8, size=k)
    pd = rng.uniform(0.0, np.pi * 0.999, size=k)
    return DirectionSet(
        theta_h=th,
        theta_d=td,
        phi_d=pd,
        cos_wi=rng.uniform(0.3, 1.0, size=k),
        cos_wo=rng.uniform(0.3, 1.0, size=k),
        seed=seed,
        source_material=material,
    )


def make_pair(jod: float, material: str = "m", seed: int = 0, k: int = 4) -> LabeledPair:
    rng = np.random.default_rng(seed)
    ds = tiny_direction_set(k=k, seed=seed, material=material)
    ref = SampledBrdf(values=rng.uniform(0.0, 2.0, size=(k, 3)), directions=ds)
    dist = SampledBrdf(values=np.maximum(ref.values + rng.normal(0, 0.1, size=(k, 3)), 0.0), directions=ds)
    return LabeledPair(ref=ref, dist=dist, jod=jod, provenance=Provenance.SYNTHETIC_ORACLE, material=material)


@pytest.fixture
def random_sampled_pair(ggx_table):
    cands = sampling.build_candidate_grid(16, 8, 8)
    ds = sampling.select_samples(ggx_table, cands, k=100, seed=3)
    ref = sampling.sample_brdf(ggx_table, ds)
    dist = sampling.sample_brdf(
        synth.distort(ggx_table, synth.DistortionSpec(synth.DistortionKind.GAUSSIAN_NOISE, 0.05, seed=1)), ds
    )
    return ref, dist
