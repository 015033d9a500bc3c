"""Sparse graph convolution network for pedestrian trajectory prediction."""
