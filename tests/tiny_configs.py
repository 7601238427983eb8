"""One tiny config per experiment kind.

The end-to-end experiment tests and tests/artifact_oracle.py run these.
This module imports nothing from meandim, so the oracle can load it next
to any source tree.
"""

TINY = {
    "double-descent-rfm": "kind = double-descent-rfm\nseed = 3\nreps = 2\ndim = 8\n"
                          "n_train = 24\nn_test = 60\nwidths = 4 8 16 24 32",
    "double-descent-mlp": "kind = double-descent-mlp\ndim = 6\nn_train = 24\nn_test = 30\n"
                          "widths = 4 8\nepochs = 3\nmd_samples = 200\nloss = mse\n"
                          "n_classes = 2",
    "theory-curve": "kind = theory-curve\ngrid_min = 0.5\ngrid_max = 2.0\ngrid_points = 5",
    "regularization-sweep": "kind = regularization-sweep\nlams = 1e-4 1\ngrid_min = 0.5\n"
                            "grid_max = 2.0\ngrid_points = 4\nempirical = true\nreps = 2\n"
                            "dim = 6\nn_train = 20\nn_test = 40\nwidths = 4 8",
    "trainset-size-sweep": "kind = trainset-size-sweep\ndim = 6\nwidth = 8\n"
                           "n_trains = 10 20 40\nn_test = 40",
    "adversarial-init": "kind = adversarial-init\ndim = 6\nn_train = 40\nn_test = 40\n"
                        "width = 8\nn_classes = 3\npretrain_grid = 0 2\nepochs = 2\n"
                        "md_samples = 150",
    "robustness-sweep": "kind = robustness-sweep\ndim = 6\nn_train = 40\nn_test = 40\n"
                        "widths = 4 8\nn_classes = 3\nepochs = 2\nmd_samples = 150\n"
                        "flip_points = 20",
    "heatmap": "kind = heatmap\ngrid_height = 4\ngrid_width = 4\nn_feat = 16\n"
               "n_train = 80\nsamples = 500",
    "distribution-comparison": "kind = distribution-comparison\ndim = 6\nn_train = 20\n"
                               "n_test = 40\nwidths = 4 8\nsamples = 300",
    "normalization-comparison": "kind = normalization-comparison\ndim = 6\nn_train = 20\n"
                                "n_test = 40\nwidths = 4 8\nsamples = 300\n"
                                "ranges = -1:1 -3:3",
}
