"""Packet-level network simulation: event loop, links, paths, servers."""

from repro.net.link import CrossTraffic, Link
from repro.net.packet import ACK, DATA, PROBE, Packet
from repro.net.path import NetworkPath, PathConfig, build_cellular_path
from repro.net.servers import CAMPUS_GEO, SPEEDTEST_SERVERS, SpeedtestServer
from repro.net.sim import Event, Simulator

__all__ = [
    "ACK",
    "CAMPUS_GEO",
    "CrossTraffic",
    "DATA",
    "Event",
    "Link",
    "NetworkPath",
    "PROBE",
    "Packet",
    "PathConfig",
    "SPEEDTEST_SERVERS",
    "Simulator",
    "SpeedtestServer",
    "build_cellular_path",
]
