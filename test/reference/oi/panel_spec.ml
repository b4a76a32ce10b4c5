include Swm_oi.Panel_spec
