"""Simulated cluster substrate: hardware specs, device meshes and comm costs."""

from .comm import CommModel
from .hardware import (
    DEFAULT_INTERCONNECT,
    GB,
    H100_SPEC,
    ClusterSpec,
    GPUSpec,
    InterconnectSpec,
    make_cluster,
)
from .topology import (
    DeviceMesh,
    enumerate_device_meshes,
    full_cluster_mesh,
    meshes_tile_cluster,
)

__all__ = [
    "GB",
    "GPUSpec",
    "InterconnectSpec",
    "ClusterSpec",
    "H100_SPEC",
    "DEFAULT_INTERCONNECT",
    "make_cluster",
    "DeviceMesh",
    "enumerate_device_meshes",
    "full_cluster_mesh",
    "meshes_tile_cluster",
    "CommModel",
]
