"""A small event-driven SDN control-plane simulator.

The paper argues its taxonomy provides "the building blocks for designing
representative and informed fault-injectors for testing SDN controllers".
This package is the testbed those injectors run against: switches exchanging
OpenFlow-style messages with a controller runtime hosting applications
(L2 learning, ACL, mirroring, stats export, multicast), external services
(a typed time-series DB standing in for InfluxDB), and optical devices
behind a VOLTHA-like adapter.

Time is simulated (discrete-event); nothing here uses threads or wall-clock
time, so every scenario is deterministic and fast.
"""
