"""Clean under DET002: the true-negative corpus."""

import os


def run(host):
    # A local named like the environment is not the environment.
    environ = {"local": "mapping"}
    return environ["local"]


def results_path(root, name):
    # Other os attributes are not process-global configuration.
    return os.path.join(root, name)


def scaled_ops(ops_per_client):
    # The knob arrives as a parameter the sweep/scale layer resolved.
    return 2 * ops_per_client
