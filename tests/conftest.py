import numpy as np
import pytest

from protodet.diffusion import Proposal
from protodet.generator import GeneratorConfig, generate_dataset
from protodet.geometry import BinaryMask, BoundingBox
from protodet.interchange import load_dataset

# The fixed-seed corpus the acceptance criteria are calibrated against.
ACCEPTANCE_CFG = GeneratorConfig(
    seed=17,
    images=50,
    classes=3,
    objects_per_image=(2, 4),
    fragments_per_object=(3, 6),
)


@pytest.fixture(scope="session")
def acceptance_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    return generate_dataset(ACCEPTANCE_CFG, out / "ds")


@pytest.fixture(scope="session")
def acceptance_dataset(acceptance_manifest):
    return load_dataset(acceptance_manifest)


def random_mask(rng, size=24):
    """Random non-empty rectangle mask on a size x size raster."""
    x1 = int(rng.integers(0, size - 1))
    y1 = int(rng.integers(0, size - 1))
    x2 = int(rng.integers(x1 + 1, size + 1))
    y2 = int(rng.integers(y1 + 1, size + 1))
    arr = np.zeros((size, size), dtype=bool)
    arr[y1:y2, x1:x2] = True
    return BinaryMask.from_array(arr), (x1, y1, x2, y2)


def random_class_props(rng, n, class_id=0, size=24, scores=None):
    """n same-class proposals with random rectangle masks and random scores."""
    props = []
    for k in range(n):
        mask, (x1, y1, x2, y2) = random_mask(rng, size)
        score = float(scores[k]) if scores is not None else float(rng.uniform(0.02, 0.98))
        props.append(
            Proposal(
                box=BoundingBox(float(x1), float(y1), float(x2), float(y2)),
                mask=mask,
                upn_score=score,
                pred_class=class_id,
                similarity=float(rng.uniform(0.1, 1.0)),
            )
        )
    return props
