"""Deterministic RNG substreams derived from one master seed.

Every random decision in a fit draws from its own generator, keyed by
what the draw is for rather than by when it happens.  Streams are
therefore identical no matter how model fits are scheduled across
worker threads.  haar_select draws its candidates from a model's projection
stream and its holdout split from that stream's spawned child.
"""

import numpy as np

# purpose tags for per-model streams
SCREEN_DRAW = 0
DIM_DRAW = 1
PHI_DRAW = 2

# top-level namespaces inside one master seed
_NS_MODEL = 1
_NS_SPLIT = 2
_NS_FOLDS = 3


def substream(master_seed, *key):
    """Independent generator for (master_seed, key).

    The key is a tuple of small non-negative ints identifying the
    consumer.  Two different keys give statistically independent
    streams; the same key always reproduces the same stream.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def model_stream(master_seed, model_index, purpose):
    """Stream for one per-model random decision (screen, dim or phi draw)."""
    return substream(master_seed, _NS_MODEL, model_index, purpose)


def split_stream(master_seed, fold_tag=0):
    """Stream for the screening/model row split; 0 tags the full-data fit."""
    return substream(master_seed, _NS_SPLIT, fold_tag)


def fold_stream(master_seed):
    """Stream assigning observations to cross-validation folds."""
    return substream(master_seed, _NS_FOLDS, 0)
