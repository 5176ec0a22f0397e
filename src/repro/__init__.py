"""repro: a simulation-based reproduction of "Understanding Operational 5G:
A First Measurement Study on Its Coverage, Performance and Energy
Consumption" (SIGCOMM 2020).

Subpackages:
    core        units, seeded RNG, radio profiles, statistics
    geometry    planar geometry and the synthetic measurement campus
    radio       propagation, cells, link adaptation, coverage, CPE
    mobility    walkers, measurement events, NSA/SA hand-off
    net         discrete-event network simulation and path models
    transport   TCP (Reno/Cubic/Vegas/Veno/BBR) and UDP over the simulator
    apps        web browsing, panoramic video telephony
    energy      RRC/DRX power state machine and energy models
    analysis    buffer estimation, KPI logging, dataset IO
    experiments one module per paper table/figure

Run ``python -m repro list`` for the experiment catalogue.
"""

__version__ = "1.0.0"
