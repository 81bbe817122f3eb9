"""Synthetic item raw features.

The paper derives item raw features from GloVe-averaged descriptions (the
four e-commerce datasets) or GPS coordinates (Foursquare).  Offline we
cannot fetch either, so we generate features with the property the model
actually exploits: *items from the same latent cluster have similar raw
features*.  Text-like features are cluster centroids in ``d`` dimensions
plus Gaussian noise; GPS-like features are 2-d cluster centers ("venue
neighbourhoods") plus small positional jitter.
"""

from __future__ import annotations

import numpy as np

#: Spreads of the cluster centres and of the items around them.
CENTROID_SCALE = 1.0
TEXT_NOISE_SCALE = 0.25
CITY_EXTENT = 10.0
NEIGHBOURHOOD_SCALE = 0.4


def text_like_features(cluster_of_item: np.ndarray, feature_dim: int,
                       rng: np.random.Generator) -> np.ndarray:
    """GloVe-like feature matrix of shape ``(num_items + 1, feature_dim)``.

    ``cluster_of_item[i]`` gives item ``i``'s primary cluster (entry 0 is the
    padding item and receives a zero vector).
    """
    cluster_of_item = np.asarray(cluster_of_item, dtype=np.int64)
    num_clusters = int(cluster_of_item[1:].max()) + 1 if len(cluster_of_item) > 1 else 1
    centroids = rng.normal(0.0, CENTROID_SCALE,
                           size=(num_clusters, feature_dim))
    features = centroids[cluster_of_item] + rng.normal(
        0.0, TEXT_NOISE_SCALE, size=(len(cluster_of_item), feature_dim))
    features[0] = 0.0
    return features


def gps_like_features(cluster_of_item: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """2-d check-in coordinates: venues cluster into neighbourhoods."""
    cluster_of_item = np.asarray(cluster_of_item, dtype=np.int64)
    num_clusters = int(cluster_of_item[1:].max()) + 1 if len(cluster_of_item) > 1 else 1
    centers = rng.uniform(-CITY_EXTENT, CITY_EXTENT, size=(num_clusters, 2))
    features = centers[cluster_of_item] + rng.normal(
        0.0, NEIGHBOURHOOD_SCALE, size=(len(cluster_of_item), 2))
    features[0] = 0.0
    return features
